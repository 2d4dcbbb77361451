"""The paired-seed equivalence helper on synthetic score pairs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.equivalence import MARGIN_SPREADS, margin, paired_equivalence

#: Ten per-seed scores with a between-seed spread like a cora cell's.
REFERENCE = np.array([0.86, 0.92, 0.91, 0.90, 0.87, 0.87, 0.89, 0.90, 0.90, 0.92])


DELTA = margin([REFERENCE])


def test_margin_is_the_reference_spread():
    assert DELTA == pytest.approx(MARGIN_SPREADS * np.std(REFERENCE, ddof=1))


def test_margin_pools_variances_over_cells():
    wide = REFERENCE * 2 - REFERENCE.mean()  # twice the spread
    pooled = np.sqrt((np.var(REFERENCE, ddof=1) + np.var(wide, ddof=1)) / 2)
    assert margin([REFERENCE, wide]) == pytest.approx(MARGIN_SPREADS * pooled)


def test_identical_pairs_pass():
    verdict = paired_equivalence(REFERENCE, REFERENCE.copy(), DELTA)
    assert verdict.passed
    assert verdict.mean == verdict.low == verdict.high == 0.0
    assert verdict.seeds == REFERENCE.size


def test_small_paired_noise_passes():
    noise = np.random.default_rng(0).normal(0, 0.1, REFERENCE.size)
    noise -= noise.mean()
    verdict = paired_equivalence(REFERENCE, REFERENCE + noise * DELTA, DELTA)
    assert verdict.passed and verdict.low < 0 < verdict.high


@pytest.mark.parametrize("sign", [1, -1])
def test_two_delta_shift_fails(sign):
    shift = sign * 2 * DELTA
    verdict = paired_equivalence(REFERENCE, REFERENCE + shift, DELTA)
    assert verdict.mean == pytest.approx(shift)
    assert not verdict.passed


def test_interval_too_wide_to_show_equivalence_fails():
    # Mean difference exactly 0, but the seeds disagree by ± 2δ each.
    swing = 2 * DELTA * np.tile([1.0, -1.0], REFERENCE.size // 2)
    verdict = paired_equivalence(REFERENCE, REFERENCE + swing, DELTA)
    assert verdict.mean == pytest.approx(0.0, abs=1e-12)
    assert verdict.high > verdict.delta and not verdict.passed


@pytest.mark.parametrize("reference,candidate", [
    (REFERENCE, REFERENCE[:5]),      # unpaired
    (REFERENCE[:1], REFERENCE[:1]),  # one seed has no spread
])
def test_rejects_unpaired_or_single_seed_scores(reference, candidate):
    with pytest.raises(ValueError, match="equal-length"):
        paired_equivalence(reference, candidate, DELTA)
