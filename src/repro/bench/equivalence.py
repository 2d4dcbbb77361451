"""Paired-seed equivalence: does a change score like its reference, seed
for seed?

A change that moves a seeded random stream (a cheaper dropout draw, a
different feature draw) changes every score bit, so a golden digest can
only reject it. What it must not change is the *distribution* of scores.
Following the multi-seed protocol of Dong et al. (arXiv 2412.07188), one
cell (dataset × scheme × filter) is run on the same seeds — the same
splits — by the reference and by the candidate, and the cell passes when
the 95 % confidence interval of the mean paired difference
``candidate − reference`` lies inside ``±δ`` (an equivalence test: a wide
interval fails, it does not pass for want of evidence).

The margin is fixed by one rule, stated here before any candidate is
measured: ``δ`` is :data:`MARGIN_SPREADS` times the reference's own
between-seed standard deviation, pooled (root mean square of the sample
standard deviations) over the cells that share a dataset. Pooling
steadies the estimate: one cell's ten scores on a 136-node test set take
a handful of values, and its spread alone can read half the dataset's.

Why 2.5 spreads: on cora, seed-to-seed noise is mostly training noise,
not the split, so a pure stream move gives paired differences with a
spread of about √2 reference spreads, and the 95 % CI of ten of them is
± one spread wide by itself. Measured at the parent with the dropout
mask complemented (same stream use, another mask), the widest cell's
``|mean| + half-width`` was 1.05 pooled spreads; for σ_d = 1.4 spreads a
cell then fails with probability 0.3 % at 2.5 (4 % at 2). A planted
``dropout = 0.9`` sits 6–10 pooled spreads out on four of the twelve
cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import stats

#: δ in units of the reference's pooled between-seed standard deviation.
MARGIN_SPREADS = 2.5
#: Two-sided confidence of the interval on the mean paired difference.
CONFIDENCE = 0.95


@dataclass(frozen=True)
class Equivalence:
    """One cell's verdict: mean paired difference, its CI, and ``δ``."""

    seeds: int
    mean: float
    low: float
    high: float
    delta: float

    @property
    def passed(self) -> bool:
        return -self.delta <= self.low and self.high <= self.delta


def margin(reference_cells: Sequence[Sequence[float]]) -> float:
    """``δ``: :data:`MARGIN_SPREADS` × the pooled between-seed standard
    deviation of the reference's per-seed scores over ``reference_cells``
    (one cell is a list of scores, one per seed)."""
    variances = [np.var(np.asarray(cell, float), ddof=1)
                 for cell in reference_cells]
    return MARGIN_SPREADS * math.sqrt(float(np.mean(variances)))


def paired_equivalence(reference: Sequence[float], candidate: Sequence[float],
                       delta: float) -> Equivalence:
    """Compare per-seed scores paired by position (same seed, same split)
    against the margin ``delta``."""
    ref = np.asarray(reference, dtype=float)
    cand = np.asarray(candidate, dtype=float)
    if ref.shape != cand.shape or ref.ndim != 1 or ref.size < 2:
        raise ValueError(
            f"need two equal-length score lists of ≥ 2 seeds, got "
            f"{ref.shape} and {cand.shape}")
    diff = cand - ref
    mean = float(diff.mean())
    half = float(stats.t.ppf(0.5 + CONFIDENCE / 2, diff.size - 1)
                 * diff.std(ddof=1) / math.sqrt(diff.size))
    return Equivalence(seeds=int(diff.size), mean=mean, low=mean - half,
                       high=mean + half, delta=float(delta))
