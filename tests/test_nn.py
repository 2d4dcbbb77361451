"""Modules: parameter discovery, state dicts, MLP/attention behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.optim import Adam
from repro.autodiff import functional as F
from repro.nn import MLP, Linear, Module, ModuleList, Parameter, SelfAttention, TransformerBlock


class TestModule:
    def test_parameter_registration(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2), dtype=np.float32))
                self.inner = Linear(2, 3, rng=rng)

        net = Net()
        names = dict(net.named_parameters())
        assert "w" in names
        assert "inner.weight" in names
        assert "inner.bias" in names
        assert sum(p.size for p in net.parameters()) == 4 + 6 + 3

    def test_train_eval_propagates(self, rng):
        mlp = MLP(4, 2, num_layers=2, rng=rng)
        mlp.eval()
        assert all(not m.training for m in mlp.modules())
        mlp.train()
        assert all(m.training for m in mlp.modules())

    def test_state_dict_roundtrip(self, rng):
        mlp = MLP(4, 2, num_layers=2, rng=rng)
        state = mlp.state_dict()
        for p in mlp.parameters():
            p.data = p.data + 1.0
        mlp.load_state_dict(state)
        for name, p in mlp.named_parameters():
            np.testing.assert_array_equal(p.data, state[name])

    def test_state_dict_copies(self, rng):
        mlp = MLP(4, 2, num_layers=1, rng=rng)
        state = mlp.state_dict()
        state["layers.0.weight"][:] = 99.0
        assert not np.any(mlp.layers[0].weight.data == 99.0)

    def test_zero_grad(self, rng):
        linear = Linear(3, 2, rng=rng)
        out = linear(Tensor(rng.normal(size=(4, 3)).astype(np.float32)))
        out.sum().backward()
        assert linear.weight.grad is not None
        linear.zero_grad()
        assert linear.weight.grad is None

    def test_module_list(self, rng):
        items = ModuleList([Linear(2, 2, rng=rng), Linear(2, 2, rng=rng)])
        assert len(items) == 2
        assert items[0] is list(items)[0]
        # Parameters of children are discoverable.
        assert len(items.parameters()) == 4


class TestLinear:
    def test_shapes(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 5)).astype(np.float32)))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_exactness(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, rtol=1e-5)


class TestMLP:
    def test_zero_layers_is_identity(self, rng):
        mlp = MLP(4, 9, num_layers=0, rng=rng)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        assert mlp(x) is x
        assert mlp.parameters() == []

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_depth_and_shapes(self, rng, depth):
        mlp = MLP(4, 2, hidden=8, num_layers=depth, rng=rng)
        out = mlp(Tensor(rng.normal(size=(5, 4)).astype(np.float32)))
        assert out.shape == (5, 2)
        assert len(mlp.layers) == depth

    def test_dropout_only_in_training(self, rng):
        mlp = MLP(4, 4, num_layers=1, dropout=0.9, rng=rng)
        x = Tensor(np.ones((8, 4), dtype=np.float32))
        mlp.eval()
        a = mlp(x).data
        b = mlp(x).data
        np.testing.assert_array_equal(a, b)  # deterministic when eval

    def test_learns_xor_like_split(self, rng):
        # Nonlinear separability requires depth >= 2 and ReLU.
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float32)
        y = np.array([0, 1, 1, 0])
        mlp = MLP(2, 2, hidden=16, num_layers=2, rng=np.random.default_rng(0))
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = F.cross_entropy(mlp(Tensor(np.tile(x, (8, 1)))), np.tile(y, 8))
            loss.backward()
            opt.step()
        mlp.eval()
        predictions = mlp(Tensor(x)).data.argmax(axis=1)
        np.testing.assert_array_equal(predictions, y)


class TestAttention:
    def test_self_attention_shape(self, rng):
        attn = SelfAttention(8, rng=rng)
        out = attn(Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32)))
        assert out.shape == (3, 5, 8)

    def test_transformer_block_shape(self, rng):
        block = TransformerBlock(8, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32)))
        assert out.shape == (2, 4, 8)

    def test_attention_is_permutation_sensitive_output_aligned(self, rng):
        # Permuting tokens permutes outputs identically (no positional bias).
        attn = SelfAttention(6, rng=rng)
        x = rng.normal(size=(1, 4, 6)).astype(np.float32)
        out = attn(Tensor(x)).data
        perm = [2, 0, 3, 1]
        out_perm = attn(Tensor(x[:, perm, :])).data
        np.testing.assert_allclose(out[:, perm, :], out_perm, atol=1e-5)

    def test_gradients_flow(self, rng):
        block = TransformerBlock(6, rng=rng)
        x = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32))
        block(x).sum().backward()
        assert all(p.grad is not None for p in block.parameters())
