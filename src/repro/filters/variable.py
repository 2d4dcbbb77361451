"""Variable filters: fixed basis, learnable coefficients (Table 1, middle).

Each filter here is a polynomial basis — monomial, Horner-residual,
Chebyshev (1st/2nd kind, plain and interpolated), Bernstein, Legendre,
Jacobi, Favard, OptBasis — whose K+1 coefficients θ are learned by gradient
descent in the enclosing model.

Bases with recurrences over an argument in [−1, 1] (Chebyshev, Clenshaw,
Legendre, Jacobi) are evaluated on the *shifted* operator ``L̃ − I = −Ã``
(eigenvalues ``λ − 1``), the convention of ChebNetII/JacobiConv; this keeps
basis magnitudes bounded where the raw-``L̃`` recurrences printed in the
paper's table would grow geometrically.

Favard and OptBasis have data- or parameter-dependent bases. Both are
reduced to the monomial hop space: any degree-k polynomial basis is a
(here triangular) linear map over monomials, so the recurrence runs on
coefficient vectors instead of n×F matrices. This is what makes them
trainable under the mini-batch scheme (precomputed hops + per-batch
recombination), matching the O(KnF) extra transform cost the paper reports.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..autodiff.tensor import Tensor, stack
from ..errors import FilterError
from ..runtime import plan
from .base import Context, ParamSpec, Signal, SpectralFilter, monomial_bases


def _sqrt(value):
    if isinstance(value, Tensor):
        return value.sqrt()
    return np.sqrt(value)


def _softplus(value):
    if isinstance(value, Tensor):
        return ((value.clip(-30.0, 30.0)).exp() + 1.0).log()
    return np.log1p(np.exp(np.clip(value, -30.0, 30.0)))


class LinearVariableFilter(SpectralFilter):
    """GIN/AKGNN linear filter ``(1+θ)I − L̃ = θI + Ã`` with learnable θ.

    Two bases {x, Ãx}; the learnable weight on the identity term is GIN's
    (1+ε) self-loop strength.
    """

    name = "linear_var"
    category = "variable"

    def basis_count(self) -> int:
        return 2

    def default_coefficients(self) -> np.ndarray:
        return np.array([0.0, 1.0], dtype=np.float32)

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, 2, operator="adj")


class MonomialVariableFilter(SpectralFilter):
    """GPRGNN/DAGNN: learnable θ over monomial bases ``(I − L̃)^k``.

    Initialized with the PPR decay ``θ_k = α(1−α)^k`` (and the tail mass on
    θ_K), GPRGNN's recommended warm start.
    """

    name = "monomial_var"
    category = "variable"

    def __init__(self, num_hops: int = 10, alpha: float = 0.5):
        super().__init__(num_hops)
        self.alpha = float(alpha)

    def default_coefficients(self) -> np.ndarray:
        k = np.arange(self.num_hops + 1)
        theta = self.alpha * (1.0 - self.alpha) ** k
        theta[-1] = (1.0 - self.alpha) ** self.num_hops
        return theta.astype(np.float32)

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")

    def hyperparameters(self) -> Dict[str, float]:
        return {"alpha": self.alpha}


class HornerFilter(SpectralFilter):
    """HornerGCN/ARMA-style residual bases ``b_k = Ã b_{k−1} + x``.

    Spectrally the residual-accumulated basis spans the same space as the
    monomial one (``b_k(λ) = Σ_{j≤k}(1−λ)^j``), but the explicit residual
    changes the optimization geometry: weights on later bases keep mixing
    the raw signal back in, which counteracts over-smoothing. The extra
    live term gives the O(2nF) memory row of Table 1.
    """

    name = "horner"
    category = "variable"
    memory_complexity = "O(2nF)"

    def default_coefficients(self) -> np.ndarray:
        return np.full(self.num_hops + 1, 1.0 / (self.num_hops + 1), dtype=np.float32)

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "horner", (), self.num_hops + 1)


class ChebyshevFilter(SpectralFilter):
    """ChebNet/ChebBase: first-kind Chebyshev basis on ``L̂ = L̃ − I``.

    ``T_0 = I, T_1 = L̂, T_k = 2 L̂ T_{k−1} − T_{k−2}``; the basis values are
    ``cos(k·arccos(λ−1))``, bounded in [−1, 1].
    """

    name = "chebyshev"
    category = "variable"
    memory_complexity = "O(2nF)"

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        if self.num_hops >= 1:
            theta[1] = -1.0  # T0 − T1 = 2 − λ: linear low-pass start
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "chebyshev", (), self.num_hops + 1)


def chebyshev_nodes(order: int) -> np.ndarray:
    """Chebyshev nodes ``x_κ = cos((κ + 1/2)π / (K+1))`` of ``T_{K+1}``."""
    kappa = np.arange(order + 1)
    return np.cos((kappa + 0.5) * np.pi / (order + 1))


class ChebInterpFilter(ChebyshevFilter):
    """ChebNetII: parameters live at Chebyshev nodes, not on the basis.

    The learnable vector θ holds target responses at the K+1 Chebyshev
    nodes; the basis weights are the interpolation
    ``w_k = (2/(K+1)) Σ_κ θ_κ T_k(x_κ)`` (k = 0 halved). This reparameterizes
    the same space with implicit smoothing — the paper's O(K²nF) extra
    term is this transform.
    """

    name = "chebinterp"
    category = "variable"
    time_complexity = "O(KmF + K^2 nF)"
    memory_complexity = "O(2nF)"

    def default_coefficients(self) -> np.ndarray:
        # Initialize the node responses to a linear low-pass: g(λ) = 1 − λ/2
        # evaluated at λ = x_κ + 1.
        nodes = chebyshev_nodes(self.num_hops)
        return ((1.0 - nodes) / 2.0).astype(np.float32)

    def coefficient_transform(self) -> np.ndarray:
        nodes = chebyshev_nodes(self.num_hops)
        k = np.arange(self.num_hops + 1)[:, None]
        transform = np.cos(k * np.arccos(nodes[None, :]))  # T_k(x_κ)
        transform *= 2.0 / (self.num_hops + 1)
        transform[0] *= 0.5
        return transform.astype(np.float64)


class ClenshawFilter(SpectralFilter):
    """ClenshawGCN: second-kind Chebyshev basis ``U_k(λ − 1)``.

    ``U_0 = I, U_1 = 2L̂, U_k = 2L̂U_{k−1} − U_{k−2}``; magnitudes grow
    linearly at the interval ends, giving the stronger high-frequency
    emphasis the paper observes, at an O(3nF) live-term cost.
    """

    name = "clenshaw"
    category = "variable"
    memory_complexity = "O(3nF)"

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "clenshaw", (), self.num_hops + 1)


class BernsteinFilter(SpectralFilter):
    """BernNet: Bernstein basis ``C(K,k) 2^{-K} (2I−L̃)^{K−k} L̃^k``.

    The only O(K²mF) filter in the taxonomy: every basis term needs its own
    chain of (2I − L̃) applications on top of its L̃-power. Each
    basis value is the Bernstein polynomial ``b_{k,K}(λ/2)``, non-negative
    and partitioning unity — so flat θ means an all-pass filter and θ is
    directly interpretable as the response at λ ≈ 2k/K.
    """

    name = "bernstein"
    category = "variable"
    time_complexity = "O(K^2 mF)"

    def default_coefficients(self) -> np.ndarray:
        # Linear low-pass ramp: response ≈ 1 − λ/2 at the Bernstein anchors.
        k = np.arange(self.num_hops + 1, dtype=np.float32)
        return 1.0 - k / max(self.num_hops, 1)

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        from math import comb

        # Stage 1: Laplacian powers l_k = L̃^k x — the same chain
        # FBGNN/ACMGNN/AdaGNN precompute, so shared. Stage 2: (K−k)
        # applications of (2I − L̃) = I + Ã to each power as the chain
        # yields it, so one power is live at a time, not K + 1.
        scale = 0.5 ** self.num_hops
        for k, term in enumerate(
                monomial_bases(ctx, x, self.num_hops + 1, operator="lap")):
            for _ in range(self.num_hops - k):
                term = term + ctx.adj(term)
            # Rebound, so the unscaled term is not held across the yield.
            term = term * float(comb(self.num_hops, k) * scale)
            yield term


class LegendreFilter(SpectralFilter):
    """LegendreNet: Legendre basis ``P_k(λ − 1)`` via three-term recurrence.

    ``P_k = ((2k−1)/k) L̂ P_{k−1} − ((k−1)/k) P_{k−2}`` on the shifted
    operator, orthogonal over the spectrum interval [0, 2].
    """

    name = "legendre"
    category = "variable"
    memory_complexity = "O(2nF)"

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        if self.num_hops >= 1:
            theta[1] = -1.0
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "legendre", (), self.num_hops + 1)


class JacobiFilter(SpectralFilter):
    """JacobiConv: Jacobi basis ``P_k^{(a,b)}(1 − λ)`` with shape HPs a, b.

    Chebyshev (a = b = −1/2) and Legendre (a = b = 0) are special cases;
    tuning (a, b) tilts the basis weight toward either end of the spectrum.
    Recurrence follows Wang & Zhang (2022), Appendix B of the paper.
    """

    name = "jacobi"
    category = "variable"
    memory_complexity = "O(2nF)"

    def __init__(self, num_hops: int = 10, a: float = 1.0, b: float = 1.0):
        super().__init__(num_hops)
        self.a = float(a)
        self.b = float(b)

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        if self.num_hops >= 1:
            theta[1] = 0.5
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from plan.chain_bases(ctx, x, "jacobi", (self.a, self.b),
                                    self.num_hops + 1)

    def hyperparameters(self) -> Dict[str, float]:
        return {"a": self.a, "b": self.b}


def _shift_matrix(size: int) -> np.ndarray:
    """Matrix S with S@c = coefficients of Ã·p when c holds those of p."""
    shift = np.zeros((size, size), dtype=np.float32)
    for i in range(1, size):
        shift[i, i - 1] = 1.0
    return shift


class FavardFilter(SpectralFilter):
    """FavardGNN: the basis itself is learned through Favard's theorem.

    A three-term recurrence with learnable per-hop parameters
    ``√α_k > 0`` and ``β_k`` spans every orthonormal polynomial basis:

        T_k = (Ã T_{k−1} − β_k T_{k−1} − √α_{k−1} T_{k−2}) / √α_k

    Because each T_k is a degree-k polynomial in Ã, we run the recurrence on
    *coefficient vectors over the monomial basis* (a (K+1)² triangular
    computation) and apply the result to precomputed hop features — one
    implementation that serves full-batch autodiff, mini-batch precompute,
    and spectral response alike, at the O(KnF + KmF) cost in Table 1.
    Positivity of α is enforced with a softplus.
    """

    name = "favard"
    category = "variable"
    time_complexity = "O(KmF + KnF)"
    memory_complexity = "O(2nF)"

    def parameter_spec(self) -> Dict[str, ParamSpec]:
        size = self.num_hops + 1
        theta = self.default_coefficients()
        # softplus(0.5413) ≈ 1 → α starts at 1 (plain monomial recurrence).
        alpha_raw = np.full(size, 0.5413, dtype=np.float32)
        beta = np.zeros(size, dtype=np.float32)
        return {
            "theta": ParamSpec(theta.shape, theta),
            "alpha_raw": ParamSpec(alpha_raw.shape, alpha_raw),
            "beta": ParamSpec(beta.shape, beta),
        }

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        if self.num_hops >= 1:
            theta[1] = 0.5
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        yield from monomial_bases(ctx, x, self.num_hops + 1, operator="adj")

    def _resolve_coefficients(self, params: Optional[Dict]):
        if not params:
            raise FilterError("Favard filter requires theta/alpha_raw/beta parameters")
        theta = params["theta"]
        alpha = _softplus(params["alpha_raw"])
        beta = params["beta"]
        basis_rows = self._recurrence_rows(alpha, beta)
        # c_j = Σ_k θ_k · rows[k][j]: combined weights over monomial hops.
        if isinstance(theta, Tensor):
            rows = stack(basis_rows, axis=0)  # (K+1, K+1)
            return (rows * theta.reshape(theta.shape[0], 1)).sum(axis=0)
        rows_np = np.stack(basis_rows, axis=0)
        return rows_np.T @ np.asarray(theta)

    def _recurrence_rows(self, alpha, beta) -> List:
        """Rows r_k: monomial coefficients of T_k, built by the recurrence."""
        size = self.num_hops + 1
        shift = _shift_matrix(size)
        is_tensor = isinstance(alpha, Tensor)
        if is_tensor:
            shift_t = Tensor(shift)
            e0 = Tensor(np.eye(size, dtype=np.float32)[0])
        else:
            e0 = np.eye(size, dtype=np.float32)[0]
        sqrt_alpha = _sqrt(alpha + 1e-6)
        rows: List = [e0 / sqrt_alpha[0]]
        for k in range(1, size):
            prev = rows[k - 1]
            shifted = (shift_t @ prev) if is_tensor else (shift @ prev)
            term = shifted - prev * beta[k]
            if k >= 2:
                term = term - rows[k - 2] * sqrt_alpha[k - 1]
            rows.append(term / sqrt_alpha[k])
        return rows


class OptBasisFilter(SpectralFilter):
    """OptBasisGNN: per-channel basis orthonormalized against the signal.

    A Lanczos-style three-term recurrence whose β/γ coefficients come from
    inner products with the current signal, yielding (per feature channel)
    the polynomial basis that is orthonormal under the signal's spectral
    density — optimal for the denoising objective. The basis has no
    trainable parameters inside, so it precomputes for mini-batch exactly
    like a fixed basis; only θ is learned.

    The frequency response is signal-dependent: :meth:`response` replays
    the recurrence coefficients recorded during the most recent
    propagation (channel-averaged), or falls back to the initialization
    state's Chebyshev-like shape if the filter has not been run.
    """

    name = "optbasis"
    category = "variable"
    time_complexity = "O(KmF + KnF^2)"
    memory_complexity = "O(2nF)"

    def __init__(self, num_hops: int = 10):
        super().__init__(num_hops)
        self._last_beta: Optional[np.ndarray] = None
        self._last_gamma: Optional[np.ndarray] = None

    def default_coefficients(self) -> np.ndarray:
        theta = np.zeros(self.num_hops + 1, dtype=np.float32)
        theta[0] = 1.0
        return theta

    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        if ctx.is_spectral:
            yield from self._spectral_bases(ctx, x)
            return
        yield from self._orthonormal_bases(ctx, x)

    def _orthonormal_bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        eps = 1e-8
        data = x.data if isinstance(x, Tensor) else x
        if data.ndim != 2:
            raise FilterError("OptBasis requires a 2-D (n, F) signal")
        betas = np.zeros((self.num_hops + 1,), dtype=np.float64)
        gammas = np.ones((self.num_hops + 1,), dtype=np.float64)

        def col_norm(v):
            if isinstance(v, Tensor):
                return ((v * v).sum(axis=0, keepdims=True) + eps).sqrt()
            return np.sqrt((v * v).sum(axis=0, keepdims=True) + eps)

        def col_dot(u, v):
            if isinstance(u, Tensor):
                return (u * v).sum(axis=0, keepdims=True)
            return (u * v).sum(axis=0, keepdims=True)

        norm0 = col_norm(x)
        h_prev = x / norm0
        h_prev_prev = None
        gamma_prev = None
        yield h_prev
        for k in range(1, self.num_hops + 1):
            v = ctx.adj(h_prev)
            beta = col_dot(v, h_prev)
            v = v - h_prev * beta
            if h_prev_prev is not None:
                v = v - h_prev_prev * gamma_prev
            gamma = col_norm(v)
            h = v / gamma
            betas[k - 1] = float(np.mean(beta.data if isinstance(beta, Tensor) else beta))
            gammas[k] = float(np.mean(gamma.data if isinstance(gamma, Tensor) else gamma))
            yield h
            h_prev_prev, h_prev, gamma_prev = h_prev, h, gamma
        self._last_beta = betas
        self._last_gamma = gammas

    def _spectral_bases(self, ctx: Context, x: np.ndarray) -> Iterator[np.ndarray]:
        """Replay channel-averaged recurrence coefficients on the λ grid."""
        if self._last_beta is None:
            # Not yet propagated: report the Chebyshev-like default shape.
            prev_prev = x
            yield prev_prev
            if self.num_hops == 0:
                return
            prev = -ctx.adj(x)
            yield prev
            for _ in range(self.num_hops - 1):
                current = -ctx.adj(prev) * 2.0 - prev_prev
                yield current
                prev_prev, prev = prev, current
            return
        h_prev = x
        h_prev_prev = None
        yield h_prev
        for k in range(1, self.num_hops + 1):
            v = ctx.adj(h_prev) - self._last_beta[k - 1] * h_prev
            if h_prev_prev is not None:
                v = v - self._last_gamma[k - 1] * h_prev_prev
            h = v / self._last_gamma[k]
            yield h
            h_prev_prev, h_prev = h_prev, h


VARIABLE_FILTERS = (
    LinearVariableFilter,
    MonomialVariableFilter,
    HornerFilter,
    ChebyshevFilter,
    ChebInterpFilter,
    ClenshawFilter,
    BernsteinFilter,
    LegendreFilter,
    JacobiFilter,
    FavardFilter,
    OptBasisFilter,
)
