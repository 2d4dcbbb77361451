"""Fixed filters: constant basis *and* constant coefficients (Table 1, top).

These are the classical graph-diffusion schemes — identity/MLP, the GCN
linear filter, SGC's impulse, S²GC's monomial average, APPNP's personalized
PageRank, GDC's heat kernel, and G²CN's Gaussian — whose spectral responses
are closed-form functions of λ. They combine during propagation with an
O(nF) accumulator, which is exactly why the taxonomy credits them with the
smallest memory footprint.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator

import numpy as np

from ..errors import FilterError
from ..runtime import plan
from .base import Context, Signal, SpectralFilter, monomial_bases


class IdentityFilter(SpectralFilter):
    """``g(L̃) = I`` — no graph information; the MLP baseline."""

    name = "identity"
    category = "fixed"
    time_complexity = "O(KnF)"

    def basis_count(self) -> int:
        return 1

    def fixed_coefficients(self) -> np.ndarray:
        return np.array([1.0])

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield x


class LinearFilter(SpectralFilter):
    """``g(L̃) = 2I − L̃`` — one GCN propagation layer, response ``2 − λ``."""

    name = "linear"
    category = "fixed"

    def basis_count(self) -> int:
        return 2

    def fixed_coefficients(self) -> np.ndarray:
        return np.array([1.0, 1.0])

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        # 2I − L̃ = I + Ã : bases {x, Ãx} with unit weights.
        yield from monomial_bases(ctx, x, 2, operator="adj")


class ImpulseFilter(SpectralFilter):
    """``g(L̃) = (I − L̃)^K`` — SGC/gfNN: only the K-th hop survives."""

    name = "impulse"
    category = "fixed"

    def fixed_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1)
        theta[-1] = 1.0
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")


class MonomialFilter(SpectralFilter):
    """``g(L̃) = (1/(K+1)) Σ (I − L̃)^k`` — S²GC's uniform hop average."""

    name = "monomial"
    category = "fixed"

    def fixed_coefficients(self) -> np.ndarray:
        return np.full(self.num_hops + 1, 1.0 / (self.num_hops + 1))

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")


class PPRFilter(SpectralFilter):
    """Personalized PageRank: ``θ_k = α (1 − α)^k`` (APPNP/GDC/AGP).

    Parameters
    ----------
    alpha:
        Teleport/decay coefficient in [0, 1]; larger keeps more node
        identity, smaller diffuses further (useful under heterophily).
    """

    name = "ppr"
    category = "fixed"

    def __init__(self, num_hops: int = 10, alpha: float = 0.1):
        super().__init__(num_hops)
        if not 0.0 <= alpha <= 1.0:
            raise FilterError(f"PPR alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)

    def fixed_coefficients(self) -> np.ndarray:
        k = np.arange(self.num_hops + 1)
        return self.alpha * (1.0 - self.alpha) ** k

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")


class HeatKernelFilter(SpectralFilter):
    """Heat kernel: ``θ_k = e^{-α} α^k / k!``, response ``e^{-αλ}``.

    Parameters
    ----------
    alpha:
        Temperature; larger diffuses further (sharper low-pass).
    """

    name = "hk"
    category = "fixed"

    def __init__(self, num_hops: int = 10, alpha: float = 1.0):
        super().__init__(num_hops)
        if alpha < 0:
            raise FilterError(f"heat-kernel alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)

    def fixed_coefficients(self) -> np.ndarray:
        k = np.arange(self.num_hops + 1)
        factorials = np.array([factorial(i) for i in k], dtype=np.float64)
        return np.exp(-self.alpha) * self.alpha ** k / factorials

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")


class GaussianFilter(SpectralFilter):
    """Gaussian filter of G²CN, concentrated at a centre ``μ = 1 + β``.

    Implemented in G²CN's stable *product* form: J = ⌊K/2⌋ layers of
    ``H ← H − (α/J)·C²H`` with ``C = (1+β)I − L̃ = βI + Ã``, i.e.

        g(λ) = (1 − α(μ − λ)²/J)^J  →  e^{-α (λ − μ)²},

    two propagation hops per layer (the Table 1 cost). The Taylor-series
    expansion printed in Table 1 is numerically divergent when truncated
    at practical K (terms up to (αΔ²)^k/k! with αΔ² ≈ 8 need k ≳ 20), so —
    like the original G²CN code — we evaluate the product directly.

    Parameters
    ----------
    alpha:
        Concentration (decay) coefficient; larger = narrower band.
    beta:
        Centre offset: the bump sits at ``λ = 1 + β``; ``β = -1`` gives a
        low-pass bump at 0, ``β = +1`` a high-pass bump at 2.
    """

    name = "gaussian"
    category = "fixed"

    def __init__(self, num_hops: int = 10, alpha: float = 1.0, beta: float = -1.0):
        super().__init__(num_hops)
        if alpha < 0:
            raise FilterError(f"gaussian alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    @property
    def num_layers(self) -> int:
        return max(self.num_hops // 2, 1)

    def basis_count(self) -> int:
        return 1

    def fixed_coefficients(self) -> np.ndarray:
        return np.array([1.0])

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        layers = self.num_layers
        for current in plan.chain_bases(ctx, x, "gaussian",
                                        (self.alpha, self.beta, layers),
                                        layers + 1):
            pass
        yield current
