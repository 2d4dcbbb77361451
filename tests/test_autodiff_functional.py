"""Loss functions and dropout: values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad
from repro.autodiff import functional as F
from repro.errors import AutodiffError

from .test_autodiff_tensor import finite_diff


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(5, 3))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), rtol=1e-5)

    def test_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])), axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.normal(size=(4, 6))
        log_sm = F.log_softmax(Tensor(x), axis=1).data
        np.testing.assert_allclose(log_sm, np.log(F.softmax(Tensor(x), axis=1).data),
                                   atol=1e-6)


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = float(F.cross_entropy(Tensor(logits), labels).data)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), labels].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        loss = float(F.cross_entropy(Tensor(logits), np.array([0, 1])).data)
        assert loss < 1e-6

    def test_gradient(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        t = Tensor(logits.copy(), requires_grad=True, dtype=np.float64)
        F.cross_entropy(t, labels).backward()
        numeric = finite_diff(
            lambda arr: float(F.cross_entropy(Tensor(arr, dtype=np.float64), labels).data),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(AutodiffError):
            F.cross_entropy(Tensor(np.zeros(3)), np.zeros(3, dtype=int))
        with pytest.raises(AutodiffError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(4, dtype=int))


class TestBCEWithLogits:
    def test_matches_manual(self, rng):
        logits = rng.normal(size=(8,))
        targets = rng.integers(0, 2, size=8).astype(float)
        loss = float(F.binary_cross_entropy_with_logits(Tensor(logits), targets).data)
        p = 1.0 / (1.0 + np.exp(-logits))
        expected = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        assert loss == pytest.approx(expected, rel=1e-4)

    def test_stable_at_extreme_logits(self):
        loss = float(F.binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])).data)
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_gradient(self, rng):
        logits = rng.normal(size=(6,))
        targets = rng.integers(0, 2, size=6).astype(float)
        t = Tensor(logits.copy(), requires_grad=True, dtype=np.float64)
        F.binary_cross_entropy_with_logits(t, targets).backward()
        numeric = finite_diff(
            lambda arr: float(F.binary_cross_entropy_with_logits(
                Tensor(arr, dtype=np.float64), targets).data),
            logits)
        np.testing.assert_allclose(t.grad, numeric, atol=1e-5)


class TestMSE:
    def test_value(self, rng):
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        loss = float(F.mse_loss(Tensor(pred), target).data)
        assert loss == pytest.approx(((pred - target) ** 2).mean(), rel=1e-5)

    def test_gradient(self, rng):
        pred = rng.normal(size=(4, 2))
        target = rng.normal(size=(4, 2))
        t = Tensor(pred.copy(), requires_grad=True, dtype=np.float64)
        F.mse_loss(t, target).backward()
        np.testing.assert_allclose(t.grad, 2 * (pred - target) / pred.size, atol=1e-6)


class TestDropout:
    def test_noop_in_eval(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_noop_at_zero(self, rng):
        x = Tensor(rng.normal(size=(10, 10)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scale_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=np.random.default_rng(0))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)
        # Surviving entries are scaled up by 1/(1-p).
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-6)

    def test_invalid_probability(self, rng):
        x = Tensor(rng.normal(size=(3,)))
        with pytest.raises(AutodiffError):
            F.dropout(x, 1.0, training=True)
        with pytest.raises(AutodiffError):
            F.dropout(x, -0.1, training=True)

    def test_deterministic_with_rng(self, rng):
        x = Tensor(np.ones((20, 20)))
        a = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(5)).data
        b = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)


def _keep_rate(p, size, bit_generator):
    x = Tensor(np.ones(size, dtype=np.float32))
    out = F.dropout(x, p, training=True, rng=np.random.Generator(bit_generator))
    return np.count_nonzero(out.data) / size


def _quantised(p):
    """The rate the 16-bit draw realises: round(p·2¹⁶) / 2¹⁶, clamped."""
    return min(round(p * 2 ** 16), 2 ** 16 - 1) / 2 ** 16


class TestDropoutDraw:
    """The mask draws 16 raw bits per element and keeps bits ≥ round(p·2¹⁶)."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_keep_rate_within_five_sigma(self, p):
        size = 2 ** 20
        keep = 1.0 - _quantised(p)
        sigma = np.sqrt(keep * (1.0 - keep) / size)
        rate = _keep_rate(p, size, np.random.PCG64(int(p * 100)))
        assert abs(rate - keep) <= 5 * sigma
        assert abs(_quantised(p) - p) <= 2 ** -17

    def test_rate_next_to_one_clamps_instead_of_overflowing(self):
        p = 1 - 2 ** -18
        x = Tensor(np.ones(2 ** 18, dtype=np.float32))
        out = F.dropout(x, p, training=True, rng=np.random.default_rng(0))
        # t clamps to 2¹⁶ − 1: only the all-ones pattern survives, at 1/(1-p).
        kept = out.data[out.data > 0]
        assert 0 < kept.size < 16
        np.testing.assert_array_equal(kept, np.float32(1.0 / (1.0 - p)))

    def test_tiny_rate_keeps_everything(self):
        p = 2 ** -18
        x = Tensor(np.ones((300, 300), dtype=np.float32))
        out = F.dropout(x, p, training=True, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(
            out.data, np.full(x.shape, 1.0 / (1.0 - p), dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1,), (4,), (5,), (7, 3), (64, 33)])
    @pytest.mark.parametrize("grad", [True, False])
    def test_advances_ceil_size_over_four_raw_outputs(self, shape, grad):
        rng = np.random.default_rng(3)
        expected = np.random.default_rng(3)
        expected.bit_generator.random_raw(-(-int(np.prod(shape)) // 4))
        x = Tensor(np.ones(shape, dtype=np.float32))
        if grad:
            F.dropout(x, 0.5, training=True, rng=rng)
        else:
            with no_grad():
                assert F.dropout(x, 0.5, training=True, rng=rng) is x
        assert rng.bit_generator.state == expected.bit_generator.state

    def test_mask_is_the_raw_words_little_endian(self):
        shape = (3, 5)
        raw = np.random.default_rng(4).bit_generator.random_raw(4)
        bits = raw.astype("<u8").view("<u2")[:15].reshape(shape)
        x = Tensor(np.ones(shape, dtype=np.float32))
        out = F.dropout(x, 0.25, training=True, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(out.data > 0, bits >= 2 ** 14)

    def test_eval_mode_draws_nothing(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        x = Tensor(np.ones((8, 8)))
        assert F.dropout(x, 0.5, training=False, rng=rng) is x
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                               np.random.Philox])
    def test_other_bit_generators(self, bit_generator):
        size = 2 ** 18
        keep = 1.0 - _quantised(0.3)
        rate = _keep_rate(0.3, size, bit_generator(11))
        assert abs(rate - keep) <= 5 * np.sqrt(keep * (1 - keep) / size)

    def test_mt19937_takes_two_elements_per_32_bit_output(self):
        rng = np.random.Generator(np.random.MT19937(5))
        expected = np.random.Generator(np.random.MT19937(5))
        raw = expected.bit_generator.random_raw(3)
        bits = raw.astype("<u4").view("<u2")[:5]
        x = Tensor(np.ones(5, dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        np.testing.assert_array_equal(out.data > 0, bits >= 2 ** 15)
        assert rng.bit_generator.random_raw() == expected.bit_generator.random_raw()
