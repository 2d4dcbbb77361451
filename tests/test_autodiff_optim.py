"""Optimizers: update rules, parameter groups, and convergence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.optim import Adam
from repro.errors import TrainingError


def quadratic_loss(param: Tensor) -> Tensor:
    return (param * param).sum()


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([7.0])
        opt.step()
        # Bias correction makes the first step ≈ lr * sign(grad).
        np.testing.assert_allclose(p.data, [1.0 - 0.1], rtol=1e-5)

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = None
            quadratic_loss(p).backward()
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_fits_linear_regression(self, rng):
        true_w = rng.normal(size=(4, 1))
        x = rng.normal(size=(64, 4))
        y = x @ true_w
        w = Tensor(np.zeros((4, 1)), requires_grad=True, dtype=np.float64)
        opt = Adam([w], lr=0.05)
        for _ in range(500):
            w.grad = None
            residual = Tensor(x, dtype=np.float64) @ w - Tensor(y, dtype=np.float64)
            (residual * residual).mean().backward()
            opt.step()
        np.testing.assert_allclose(w.data, true_w, atol=0.02)

    def test_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([3.0])
        opt.step()
        # The moments see grad + weight_decay·param = 3 + 0.5·2 = 4. The
        # first step is lr·sign whatever the gradient, so it cannot pin
        # the coefficient; the moments can.
        np.testing.assert_allclose(opt._m[id(p)], [(1 - 0.9) * 4.0])
        np.testing.assert_allclose(opt._v[id(p)], [(1 - 0.999) * 16.0])

    def test_skips_missing_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        Adam([p], lr=0.1).step()  # no grad: no-op
        np.testing.assert_allclose(p.data, [1.0])


class TestParameterGroups:
    def test_separate_learning_rates(self):
        a = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        b = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([
            {"params": [a], "lr": 0.1},
            {"params": [b], "lr": 0.01},
        ])
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        # Adam's first step is lr-sized, so each group moves by its own lr.
        np.testing.assert_allclose(a.data, [0.9], rtol=1e-5)
        np.testing.assert_allclose(b.data, [0.99], rtol=1e-5)

    def test_group_weight_decay(self):
        a = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        b = Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        opt = Adam([
            {"params": [a], "lr": 0.1, "weight_decay": 1.0},
            {"params": [b], "lr": 0.1, "weight_decay": 0.0},
        ])
        a.grad = np.array([0.0])
        b.grad = np.array([0.0])
        opt.step()
        assert a.data[0] < 1.0
        assert b.data[0] == 1.0


class TestValidation:
    def test_empty_params_rejected(self):
        with pytest.raises(TrainingError):
            Adam([], lr=0.1)

    def test_non_grad_params_rejected(self):
        with pytest.raises(TrainingError):
            Adam([Tensor(np.ones(2))], lr=0.1)

    def test_group_missing_params_key(self):
        with pytest.raises(TrainingError):
            Adam([{"lr": 0.1}], lr=0.1)
