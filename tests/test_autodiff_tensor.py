"""Tensor ops and the backward pass, checked against numpy and finite
differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, concatenate, no_grad, stack, where
from repro.autodiff.tensor import _unbroadcast, is_grad_enabled
from repro.errors import AutodiffError


def finite_diff(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar fn of one array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(x)
        xf[i] = orig - eps
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(op, shape=(3, 4), seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    t = Tensor(x.copy(), requires_grad=True, dtype=np.float64)
    out = op(t).sum()
    out.backward()
    numeric = finite_diff(lambda arr: float(op(Tensor(arr, dtype=np.float64)).sum().item()), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol)


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor(np.arange(6).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.dtype == np.float32  # int input promoted to float

    def test_preserves_float64(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_rejects_tensor_input(self):
        with pytest.raises(AutodiffError):
            Tensor(Tensor([1.0]))

    def test_repr_mentions_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad" in repr(t)

    def test_item_scalar_only(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        with pytest.raises(AutodiffError):
            Tensor([1.0, 2.0]).item()

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.size == 8
        assert t.ndim == 2


class TestForwardAgainstNumpy:
    @pytest.mark.parametrize("op,npop", [
        (lambda a, b: a + b, np.add),
        (lambda a, b: a - b, np.subtract),
        (lambda a, b: a * b, np.multiply),
        (lambda a, b: a / b, np.divide),
    ])
    def test_binary_ops(self, rng, op, npop):
        a = rng.normal(size=(3, 4)) + 3.0
        b = rng.normal(size=(3, 4)) + 3.0
        out = op(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, npop(a, b), rtol=1e-6)

    def test_scalar_broadcast(self, rng):
        a = rng.normal(size=(3, 4))
        np.testing.assert_allclose((Tensor(a) * 2.5).data, a * 2.5, rtol=1e-6)
        np.testing.assert_allclose((2.5 * Tensor(a)).data, a * 2.5, rtol=1e-6)
        np.testing.assert_allclose((1.0 - Tensor(a)).data, 1.0 - a, rtol=1e-6)
        np.testing.assert_allclose((1.0 / (Tensor(a) + 10)).data, 1.0 / (a + 10), rtol=1e-6)

    def test_matmul(self, rng):
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-6)

    def test_batched_matmul(self, rng):
        a, b = rng.normal(size=(2, 3, 5)), rng.normal(size=(2, 5, 4))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b, rtol=1e-6)

    @pytest.mark.parametrize("method,npfn", [
        ("exp", np.exp), ("sqrt", np.sqrt), ("abs", np.abs),
    ])
    def test_unary(self, rng, method, npfn):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        out = getattr(Tensor(a), method)()
        np.testing.assert_allclose(out.data, npfn(a), rtol=1e-6)

    def test_log(self, rng):
        a = np.abs(rng.normal(size=(4,))) + 0.5
        np.testing.assert_allclose(Tensor(a).log().data, np.log(a), rtol=1e-6)

    def test_relu(self):
        a = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(Tensor(a).relu().data, [0.0, 0.0, 2.0])

    def test_clip(self):
        a = np.array([-2.0, 0.5, 3.0])
        np.testing.assert_array_equal(Tensor(a).clip(-1, 1).data, [-1.0, 0.5, 1.0])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True)])
    def test_reductions(self, rng, axis, keepdims):
        a = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            Tensor(a).sum(axis=axis, keepdims=keepdims).data,
            a.sum(axis=axis, keepdims=keepdims), rtol=1e-6)
        np.testing.assert_allclose(
            Tensor(a).mean(axis=axis, keepdims=keepdims).data,
            a.mean(axis=axis, keepdims=keepdims), rtol=1e-6)

    def test_max(self, rng):
        a = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(a).max(axis=1).data, a.max(axis=1))

    def test_reshape_transpose(self, rng):
        a = rng.normal(size=(2, 6))
        assert Tensor(a).reshape(3, 4).shape == (3, 4)
        assert Tensor(a).reshape((4, 3)).shape == (4, 3)
        assert Tensor(a).transpose().shape == (6, 2)
        b = rng.normal(size=(2, 3, 4))
        assert Tensor(b).transpose((0, 2, 1)).shape == (2, 4, 3)

    def test_getitem(self, rng):
        a = rng.normal(size=(5, 3))
        index = np.array([0, 2, 4])
        np.testing.assert_array_equal(Tensor(a)[index].data, a[index])
        np.testing.assert_array_equal(Tensor(a)[1:3].data, a[1:3])

    def test_concatenate_and_stack(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        np.testing.assert_array_equal(
            concatenate([Tensor(a), Tensor(b)], axis=1).data,
            np.concatenate([a, b], axis=1))
        np.testing.assert_array_equal(
            stack([Tensor(a), Tensor(b)], axis=0).data, np.stack([a, b]))

    def test_where(self, rng):
        a, b = rng.normal(size=(4,)), rng.normal(size=(4,))
        cond = a > 0
        np.testing.assert_array_equal(
            where(cond, Tensor(a), Tensor(b)).data, np.where(cond, a, b))


class TestBackward:
    @pytest.mark.parametrize("op", [
        lambda t: t + 2.0,
        lambda t: t * 3.0,
        lambda t: t - t * 0.5,
        lambda t: t / 2.0,
        lambda t: -t,
        lambda t: t ** 3,
        lambda t: (t * t).exp() * 0.01,
        lambda t: (t * t + 1.0).log(),
        lambda t: (t * t + 0.5).sqrt(),
        # tanh and the logistic, composed from the ops above
        lambda t: ((t * 2.0).exp() - 1.0) / ((t * 2.0).exp() + 1.0),
        lambda t: 1.0 / ((-t).exp() + 1.0),
        lambda t: t.relu(),
        lambda t: t.abs(),
        lambda t: t.max(axis=1),
        lambda t: t.mean(axis=0),
        lambda t: t.reshape(4, 3),
        lambda t: t.transpose(),
        lambda t: t[np.array([0, 2])],
        # basic indices scatter by assignment ...
        lambda t: t[1],
        lambda t: t[1:3],
        lambda t: t[..., 2],
        lambda t: t[:, 1:3],
        lambda t: t[2, 1],
        # ... array indices can repeat an element and must accumulate
        lambda t: t[np.array([0, 2, 2, 0])],
        lambda t: t[np.array([True, False, True])],
        lambda t: t[(np.array([0, 1, 1]), np.array([3, 0, 0]))],
        lambda t: t.clip(-0.5, 0.5),
    ])
    def test_gradients_match_finite_difference(self, op):
        check_gradient(op)

    def test_matmul_gradient(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True, dtype=np.float64)
        tb = Tensor(b, requires_grad=True, dtype=np.float64)
        (ta @ tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones((3, 2)) @ b.T, atol=1e-8)
        np.testing.assert_allclose(tb.grad, a.T @ np.ones((3, 2)), atol=1e-8)

    def test_broadcast_add_gradient(self, rng):
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        bias = Tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float64)
        (a + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))

    def test_reuse_accumulates(self, rng):
        t = Tensor(rng.normal(size=(3,)), requires_grad=True, dtype=np.float64)
        out = (t * 2.0 + t * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(t.grad, np.full(3, 5.0))

    def test_diamond_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        a = t * 3.0
        out = (a * a).sum()  # (3t)^2 -> d/dt = 18t = 36
        out.backward()
        np.testing.assert_allclose(t.grad, [36.0])

    def test_backward_accumulates_across_calls(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0, 4.0])

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_backward_requires_grad(self):
        with pytest.raises(AutodiffError):
            Tensor(np.ones(2)).backward()

    def test_backward_seed_shape_check(self):
        t = Tensor(np.ones(3), requires_grad=True)
        out = t * 2.0
        with pytest.raises(AutodiffError):
            out.backward(np.ones(4))

    def test_concat_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        (concatenate([a, b], axis=1) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))

    def test_stack_gradient(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True, dtype=np.float64)
        (stack([a, b], axis=0) * np.array([[1.0], [2.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(3))
        np.testing.assert_allclose(b.grad, np.full(3, 2.0))

    def test_where_gradient(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float64)
        cond = np.array([True, False, True, False])
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, cond.astype(float))
        np.testing.assert_allclose(b.grad, (~cond).astype(float))

    def test_max_tie_splitting(self):
        t = Tensor(np.array([[1.0, 1.0]]), requires_grad=True, dtype=np.float64)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        t = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = t * 2.0
            assert not is_grad_enabled()
        assert not out.requires_grad

    def test_no_grad_restores(self):
        assert is_grad_enabled()
        with no_grad():
            pass
        assert is_grad_enabled()

    def test_no_grad_restores_after_exception(self):
        try:
            with no_grad():
                raise ValueError
        except ValueError:
            pass
        assert is_grad_enabled()

    def test_detach(self):
        t = Tensor(np.ones(2), requires_grad=True)
        d = (t * 2.0).detach()
        assert not d.requires_grad
        assert d._node is None


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((3, 4))
        assert _unbroadcast(g, (3, 4)) is g

    def test_leading_axis(self):
        g = np.ones((5, 3, 4))
        np.testing.assert_array_equal(_unbroadcast(g, (3, 4)), np.full((3, 4), 5.0))

    def test_size_one_axis(self):
        g = np.ones((3, 4))
        np.testing.assert_array_equal(_unbroadcast(g, (3, 1)), np.full((3, 1), 4.0))

    def test_scalar_target(self):
        g = np.ones((2, 2))
        np.testing.assert_array_equal(_unbroadcast(g, ()), 4.0)
