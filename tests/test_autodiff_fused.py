"""The fused Σθₖ·Bₖ primitives against references written out here.

``linear_combination`` / ``contract_channels`` / one-op ``dropout`` replace
chains of elementwise graph nodes. The references below are those chains,
built from primitive Tensor ops only, and are swapped in at every import
site of the fused ops so a whole filter forward can be evaluated both ways:
forward values must agree bit for bit (same ufuncs, same order), gradients
within float32 tolerance (``∂θ`` is a dot product instead of a
product-then-sum). The last class pins graph-node and ``ops.ewise`` counts so
a later edit that re-fragments the combine fails here, not on a noisy clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.autodiff import Tensor, functional as F, no_grad
from repro.autodiff.tensor import (
    add_allocation_hook,
    contract_channels,
    linear_combination,
    remove_allocation_hook,
)
from repro.datasets import synthesize
from repro.errors import AutodiffError
from repro.filters import base as filters_base, bank as filters_bank
from repro.filters.base import PropagationContext
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.models.decoupled import MiniBatchModel
from repro.runtime import plan

from .test_autodiff_tensor import finite_diff

WIDTH = 4


# ----------------------------------------------------------------------
# references: the unfused node chains
# ----------------------------------------------------------------------
def reference_combine(bases, coefficients):
    """The streaming ``Σ θ_k B_k`` loop, one mul and one add node per term."""
    out = None
    for k, basis in enumerate(bases):
        term = basis * coefficients[k]
        out = term if out is None else out + term
    return out


def reference_contract(batch, weights):
    """``(batch * weights).sum(axis=1)`` with a materialised product."""
    shape = (1, weights.shape[0], -1 if weights.ndim == 2 else 1)
    return (batch * weights.reshape(*shape)).sum(axis=1)


@pytest.fixture
def unfused(monkeypatch):
    """Swap the references in wherever ``filters`` / ``plan`` call the ops."""
    for module in (filters_bank, plan):
        monkeypatch.setattr(module, "linear_combination", reference_combine)
    for module in (filters_base, filters_bank):
        monkeypatch.setattr(module, "contract_channels", reference_contract)
    monkeypatch.setattr(filters_base, "_combine", reference_combine)


@pytest.fixture(scope="module")
def graph():
    return synthesize("cora", scale=0.02, seed=5)


def _signal(graph, dtype=np.float32):
    rng = np.random.default_rng(11)
    return rng.normal(size=(graph.num_nodes, WIDTH)).astype(dtype)


def _parameters(filter_, seed=3):
    """The filter's parameters, nudged off their init so no ∂ is trivial."""
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(spec.init + 0.05 * rng.normal(size=spec.shape)
                     .astype(np.float32), requires_grad=True)
        for name, spec in filter_.parameter_spec().items()
    } or None


def _forward_backward(filter_, graph, seed_grad):
    x = Tensor(_signal(graph), requires_grad=True)
    params = _parameters(filter_)
    ctx = PropagationContext.for_graph(graph)
    out = filter_.forward(ctx, x, params)
    out.backward(seed_grad)
    grads = {"x": x.grad}
    for name, tensor in (params or {}).items():
        grads[name] = tensor.grad
    return out.data, grads


def _assert_close_grads(got, want):
    assert got.keys() == want.keys()
    for name, reference in want.items():
        assert got[name] is not None, name
        scale = float(np.abs(reference).max()) or 1.0
        np.testing.assert_allclose(got[name], reference, rtol=1e-5,
                                   atol=1e-5 * scale, err_msg=name)


# ----------------------------------------------------------------------
# 1. finite-difference gradchecks (float64)
# ----------------------------------------------------------------------
class TestLinearCombinationGradient:
    def _bases(self, count=3, shape=(4, 3), seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=shape) for _ in range(count)]

    def test_constant_coefficients(self):
        arrays = self._bases()
        coefficients = np.array([0.5, -2.0, 1.5])
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = linear_combination(iter(tensors), coefficients)
        np.testing.assert_array_equal(
            out.data, reference_combine(arrays, coefficients))
        out.sum().backward()
        for k, tensor in enumerate(tensors):
            def loss(a, k=k):
                parts = [a if j == k else arrays[j] for j in range(3)]
                return float(reference_combine(parts, coefficients).sum())
            np.testing.assert_allclose(
                tensor.grad, finite_diff(loss, arrays[k].copy()), atol=1e-6)

    def test_tensor_coefficients(self):
        arrays = self._bases()
        weights = np.random.default_rng(1).normal(size=(4, 3))
        theta = Tensor(np.array([0.3, -1.2, 0.7]), requires_grad=True)
        basis = Tensor(arrays[1].copy(), requires_grad=True)
        terms = [Tensor(arrays[0]), basis, Tensor(arrays[2])]
        out = linear_combination(terms, theta)
        (out * Tensor(weights)).sum().backward()

        def loss_theta(t):
            return float((reference_combine(arrays, t) * weights).sum())

        def loss_basis(a):
            parts = [arrays[0], a, arrays[2]]
            return float((reference_combine(parts, theta.data) * weights).sum())

        np.testing.assert_allclose(
            theta.grad, finite_diff(loss_theta, theta.data.copy()), atol=1e-6)
        np.testing.assert_allclose(
            basis.grad, finite_diff(loss_basis, arrays[1].copy()), atol=1e-6)

    def test_single_term(self):
        (array,) = self._bases(count=1)
        tensor = Tensor(array.copy(), requires_grad=True)
        theta = Tensor(np.array([-0.75]), requires_grad=True)
        out = linear_combination([tensor], theta)
        np.testing.assert_array_equal(out.data, array * -0.75)
        out.sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(array, -0.75))
        np.testing.assert_allclose(theta.grad, [array.sum()])

    def test_parent_appearing_twice(self):
        (array,) = self._bases(count=1)
        tensor = Tensor(array.copy(), requires_grad=True)
        theta = Tensor(np.array([2.0, -0.5]), requires_grad=True)
        linear_combination([tensor, tensor], theta).sum().backward()
        np.testing.assert_allclose(tensor.grad, np.full_like(array, 1.5))
        np.testing.assert_allclose(theta.grad, [array.sum()] * 2)

    def test_constant_basis_gets_no_gradient(self):
        arrays = self._bases(count=2)
        constant = Tensor(arrays[0])
        live = Tensor(arrays[1], requires_grad=True)
        out = linear_combination([constant, live], (1.0, 3.0))
        assert out._node._parents == (live._node,)
        out = linear_combination([constant, live],
                                 Tensor(np.array([1.0, 3.0]),
                                        requires_grad=True))
        constant_grad, live_grad, theta_grad = out._node._backward(
            np.ones_like(arrays[0]))
        assert constant_grad is None
        # ∂B_k comes back deferred as a (grad, c_k) pair.
        np.testing.assert_allclose(np.multiply(*live_grad),
                                   np.full_like(arrays[1], 3.0))
        np.testing.assert_allclose(theta_grad,
                                   [arrays[0].sum(), arrays[1].sum()])

    def test_nothing_retained_without_grad(self):
        arrays = self._bases()
        theta = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = linear_combination(
                [Tensor(a, requires_grad=True) for a in arrays], theta)
        assert out._node is None and not out.requires_grad

    def test_rejects_bad_input(self):
        a = Tensor(np.ones((2, 2)))
        with pytest.raises(AutodiffError):
            linear_combination([], (1.0,))
        with pytest.raises(AutodiffError):
            linear_combination([a, a], (1.0,))
        with pytest.raises(AutodiffError):
            linear_combination([a, Tensor(np.ones((2, 1)))], (1.0, 1.0))
        with pytest.raises(AutodiffError):
            linear_combination([a], np.ones((1, 1)))


class TestContractChannelsGradient:
    @pytest.mark.parametrize("weight_shape", [(5,), (5, 3)])
    def test_matches_finite_differences(self, weight_shape):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(4, 5, 3))
        weights = rng.normal(size=weight_shape)
        mix = rng.normal(size=(4, 3))
        expand = weights.reshape(1, 5, -1)

        batch_t = Tensor(batch.copy(), requires_grad=True)
        weights_t = Tensor(weights.copy(), requires_grad=True)
        out = contract_channels(batch_t, weights_t)
        np.testing.assert_allclose(out.data, (batch * expand).sum(axis=1))
        (out * Tensor(mix)).sum().backward()

        def loss_weights(w):
            return float(((batch * w.reshape(1, 5, -1)).sum(axis=1) * mix).sum())

        def loss_batch(b):
            return float(((b * expand).sum(axis=1) * mix).sum())

        np.testing.assert_allclose(
            weights_t.grad, finite_diff(loss_weights, weights.copy()), atol=1e-6)
        np.testing.assert_allclose(
            batch_t.grad, finite_diff(loss_batch, batch.copy()), atol=1e-6)

    def test_constant_batch_gets_no_gradient(self):
        batch = Tensor(np.ones((2, 3, 2)))
        weights = Tensor(np.ones(3), requires_grad=True)
        out = contract_channels(batch, weights)
        batch_grad, weights_grad = out._node._backward(np.ones((2, 2)))
        assert batch_grad is None
        np.testing.assert_allclose(weights_grad, [4.0, 4.0, 4.0])

    def test_rejects_mismatched_weights(self):
        batch = Tensor(np.ones((2, 3, 2)))
        for shape in [(2,), (3, 3), (1, 3, 2)]:
            with pytest.raises(AutodiffError):
                contract_channels(batch, Tensor(np.ones(shape)))
        with pytest.raises(AutodiffError):
            contract_channels(Tensor(np.ones((3, 2))), Tensor(np.ones(3)))


# ----------------------------------------------------------------------
# 2. every registry filter: fused ≡ unfused
# ----------------------------------------------------------------------
def _filter(name):
    return make_filter(name, num_hops=6, num_features=WIDTH)


@pytest.mark.parametrize("name", FILTER_NAMES)
class TestFilterMatrix:
    def test_full_batch_forward_and_gradients(self, name, graph, request):
        seed_grad = np.random.default_rng(4).normal(
            size=(graph.num_nodes, _filter(name).output_width(WIDTH))
        ).astype(np.float32)
        fused_out, fused_grads = _forward_backward(_filter(name), graph,
                                                   seed_grad)
        request.getfixturevalue("unfused")
        reference_out, reference_grads = _forward_backward(
            _filter(name), graph, seed_grad)
        np.testing.assert_array_equal(fused_out, reference_out)
        _assert_close_grads(fused_grads, reference_grads)

    def test_batch_combine(self, name, graph, request):
        def run():
            filter_ = _filter(name)
            channels = filter_.precompute(graph, _signal(graph))
            params = _parameters(filter_)
            out = filter_.batch_combine(Tensor(channels), params)
            if not out.requires_grad:
                return out.data, {}
            out.backward(np.ones_like(out.data))
            return out.data, {k: v.grad for k, v in params.items()}

        fused_out, fused_grads = run()
        request.getfixturevalue("unfused")
        reference_out, reference_grads = run()
        np.testing.assert_allclose(fused_out, reference_out, rtol=0, atol=1e-6)
        _assert_close_grads(fused_grads, reference_grads)

    def test_numpy_paths_keep_their_bytes(self, name, graph, request):
        """``response()`` and ``precompute()`` never see the fused op."""
        lams = np.linspace(0.0, 2.0, 33)
        response = _filter(name).response(lams)
        channels = _filter(name).precompute(graph, _signal(graph))
        request.getfixturevalue("unfused")
        assert _filter(name).response(lams).tobytes() == response.tobytes()
        reference = _filter(name).precompute(graph, _signal(graph))
        assert reference.dtype == channels.dtype
        assert reference.tobytes() == channels.tobytes()


# ----------------------------------------------------------------------
# 3. dropout as one op; constants get no gradient
# ----------------------------------------------------------------------
class TestDropout:
    P = 0.3

    def _expected(self, x, seed):
        """The spec: 16 raw bits per element, kept when ≥ round(p·2¹⁶)."""
        rng = np.random.default_rng(seed)
        raw = rng.bit_generator.random_raw(-(-x.size // 4))
        bits = raw.astype("<u8").view("<u2")[:x.size].reshape(x.shape)
        keep = (bits >= round(self.P * 2 ** 16)).astype(x.dtype)
        return x * (keep * (1.0 / (1.0 - self.P))), rng.bit_generator.state

    def test_train_mode_is_one_node_with_the_seeded_mask(self):
        x = np.random.default_rng(0).normal(size=(6, 5)).astype(np.float32)
        expected, state = self._expected(x, seed=9)
        rng = np.random.default_rng(9)
        source = Tensor(x, requires_grad=True)
        out = F.dropout(source, self.P, training=True, rng=rng)
        np.testing.assert_array_equal(out.data, expected)
        assert rng.bit_generator.state == state
        assert out._op == "dropout" and out._node._parents == (source._node,)
        out.sum().backward()
        np.testing.assert_array_equal(source.grad * x, expected)

    def test_eval_mode_draws_nothing(self):
        x = Tensor(np.ones((3, 3)))
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        assert F.dropout(x, self.P, training=False, rng=rng) is x
        assert rng.bit_generator.state == before

    def test_no_grad_consumes_the_same_draw(self):
        x = Tensor(np.ones((6, 5)))
        _, state = self._expected(x.data, seed=9)
        rng = np.random.default_rng(9)
        with no_grad():
            assert F.dropout(x, self.P, training=True, rng=rng) is x
        assert rng.bit_generator.state == state


class TestBackwardSkipsConstants:
    @pytest.mark.parametrize("op", [
        lambda a, b: a + b, lambda a, b: a - b,
        lambda a, b: a * b, lambda a, b: a / b,
    ])
    def test_constant_operand_slot_is_none(self, op):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0, 6.0]))
        for out, constant_slot in ((op(a, b), 1), (op(b, a), 0)):
            slots = out._node._backward(np.ones(3))
            assert slots[constant_slot] is None
            assert slots[1 - constant_slot] is not None
        a.grad = None
        op(a, b).sum().backward()
        assert b.grad is None and a.grad is not None

    def test_where(self):
        from repro.autodiff import where

        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.zeros(3))
        grads = where(np.array([True, False, True]), a, b)._node._backward(
            np.ones(3))
        np.testing.assert_array_equal(grads[0], [1.0, 0.0, 1.0])
        assert grads[1] is None


# ----------------------------------------------------------------------
# 4. graph shape guard
# ----------------------------------------------------------------------
class _NodeCounter:
    """Counts non-leaf engine allocations: one per graph node, plus the
    dropout mask (metered under its op's name)."""

    def __enter__(self):
        self.count = 0
        add_allocation_hook(self._on_alloc)
        telemetry.shutdown()
        telemetry.configure()
        return self

    def _on_alloc(self, nbytes, array, op):
        self.count += op != "leaf"

    def __exit__(self, *exc):
        remove_allocation_hook(self._on_alloc)
        counters = telemetry.get_metrics().counter_values()
        self.ewise_calls = counters.get("ops.ewise.calls", 0)
        telemetry.shutdown()


class TestGraphShapeIsPinned:
    """K = 10 on a 50-node graph: spmm nodes + one combine per Σ."""

    @pytest.fixture(scope="class")
    def graph50(self):
        ring = np.arange(50)
        edges = np.stack([ring, (ring + 1) % 50], axis=1)
        return Graph.from_edges(50, edges)

    @pytest.mark.parametrize("name,nodes,ewise", [
        # 10 spmm + the combine
        ("ppr", 11, 1),
        # 10 spmm + neg (T1) + 9 fused recurrence steps + the combine
        ("chebyshev", 21, 11),
        # low: 10 spmm + combine; high: 10 (spmm + sub) + combine; Σ γ_q g_q
        ("fbgnn2", 33, 13),
    ])
    def test_full_batch_forward_backward(self, graph50, name, nodes, ewise):
        filter_ = make_filter(name, num_hops=10)
        params = _parameters(filter_)
        x = Tensor(_signal(graph50), requires_grad=True)
        ctx = PropagationContext.for_graph(graph50)
        with _NodeCounter() as counter:
            out = filter_.forward(ctx, x, params)
            out.backward(np.ones_like(out.data))
        assert counter.count == nodes
        assert counter.ewise_calls == ewise

    def test_mini_batch_step(self, graph50):
        filter_ = make_filter("chebyshev", num_hops=10)
        channels = filter_.precompute(graph50, _signal(graph50))
        model = MiniBatchModel(filter_, WIDTH, 3, hidden=8, phi1_layers=2,
                               dropout=0.5, rng=np.random.default_rng(0))
        model.train()
        labels = np.arange(graph50.num_nodes) % 3
        batch = Tensor(channels)
        with _NodeCounter() as counter:
            F.cross_entropy(model(batch), labels).backward()
        # contract; 2 × (dropout mask + dropout + matmul + bias add) + relu;
        # cross-entropy: sub, exp, sum, log, sub, getitem, mean, neg
        assert counter.count == 18
        # contract, 2 dropout, 2 bias add, relu, and sub/exp/log/sub/neg
        assert counter.ewise_calls == 11
