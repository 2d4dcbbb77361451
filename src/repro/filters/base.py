"""Filter abstractions: the unified spectral-filter interface.

Every GNN in the paper's taxonomy (Table 1) reduces to a polynomial filter

    g(L̃) · x = Σ_{k=0}^{K} θ_k · T^(k)(L̃) · x

characterized by a basis recurrence ``T^(k)`` and coefficients ``θ`` that
are constant (*fixed* filters), learned (*variable* filters), or organized
into Q fused channels (*filter banks*).

The central trick of this implementation is that each filter writes its
basis recurrence **once**, against a :class:`PropagationContext` that knows
only how to apply the graph operator. Three interchangeable contexts then
reuse the same recurrence for:

- full-batch training  — operator = sparse ``Ã`` matmul over autodiff
  tensors (gradients flow through propagation);
- mini-batch precompute — operator = the same matmul over raw numpy;
- spectral analysis    — operator = elementwise multiplication by
  ``(1 − λ)`` on a grid of eigenvalues, so ``response(λ)`` is *numerically
  identical* to what propagation computes, by construction.

Filters never own trainable state. They declare what they need through
:meth:`SpectralFilter.parameter_spec`, and the enclosing model materializes
those parameters — which is what lets one filter implementation serve the
full-batch, mini-batch, and analysis paths alike (the paper's "separated
spectral kernels" design, Appendix C).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from ..autodiff.sparse import spmm, spmm_numpy
from ..autodiff.tensor import (Tensor, accumulate, as_tensor,
                               contract_channels, linear_combination)
from ..errors import FilterError
from ..graph.graph import Graph
from ..runtime import plan

Signal = Union[np.ndarray, Tensor]


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one trainable parameter a filter requires.

    ``init`` is the initial value; the model copies it into a fresh
    :class:`~repro.nn.module.Parameter`, so filters stay stateless.
    """

    shape: tuple
    init: np.ndarray

    def __post_init__(self):
        if tuple(self.init.shape) != tuple(self.shape):
            raise FilterError(
                f"init shape {self.init.shape} != declared shape {self.shape}"
            )


class PropagationContext:
    """Applies the graph operator to signals; backend for basis recurrences.

    ``adj(x)`` applies the normalized self-looped adjacency ``Ã = I − L̃``;
    ``lap(x)`` applies ``L̃``. Both work on numpy arrays and autodiff
    tensors. ``hops`` counts operator applications, which the profiler uses
    to verify the O(KmF) / O(K²mF) complexity column of Table 1.
    """

    is_spectral = False

    def __init__(self, matrix: sp.spmatrix, backend: str = "csr"):
        self._matrix = matrix
        self._backend = backend
        self.hops = 0

    @property
    def matrix(self) -> sp.spmatrix:
        """The propagation operator (the planner keys chains on it)."""
        return self._matrix

    @property
    def backend(self) -> str:
        """The spmm backend name (part of the planner's operator key)."""
        return self._backend

    def adj(self, x: Signal) -> Signal:
        """Apply ``Ã`` (one propagation hop)."""
        self.hops += 1
        if isinstance(x, Tensor):
            return spmm(self._matrix, x, backend=self._backend)
        return spmm_numpy(self._matrix, x, backend=self._backend)

    def lap(self, x: Signal) -> Signal:
        """Apply ``L̃ = I − Ã``."""
        return x - self.adj(x)

    @classmethod
    def for_graph(cls, graph: Graph, rho: float = 0.5, backend: str = "csr"
                  ) -> "PropagationContext":
        """Context over the graph's memoized ``Ã`` for this ``ρ``.

        Repeated contexts on the same graph (across filters, schemes, and
        epochs) share one propagation matrix via the per-graph
        normalization memo, and therefore one cached backward transpose.
        """
        return cls(graph.normalized_adjacency(rho), backend=backend)


class SpectralContext:
    """Evaluates the same recurrences on an eigenvalue grid.

    A "signal" here is the vector of polynomial values ``p(λ_i)`` over the
    grid; applying ``Ã`` multiplies pointwise by ``(1 − λ)``, applying
    ``L̃`` by ``λ``. Running a filter's recurrence from the all-ones signal
    therefore yields its exact frequency response ``g(λ)``.
    """

    is_spectral = True

    def __init__(self, lams: np.ndarray):
        lams = np.asarray(lams, dtype=np.float64)
        if lams.ndim != 1:
            raise FilterError(f"eigenvalue grid must be 1-D, got {lams.shape}")
        self.lams = lams
        self.hops = 0

    def adj(self, x: np.ndarray) -> np.ndarray:
        self.hops += 1
        return (1.0 - self.lams) * x

    def lap(self, x: np.ndarray) -> np.ndarray:
        return self.lams * x


Context = Union[PropagationContext, SpectralContext]


def _combine(bases: Iterator[Signal], coefficients) -> Signal:
    """Σ θ_k B_k, streaming (holds one accumulator + current basis).

    Autodiff signals go through the fused :func:`linear_combination` node;
    numpy and spectral-grid signals through its accumulate step.
    """
    bases = iter(bases)
    first = next(bases, None)
    if first is None:
        raise FilterError("filter produced no basis terms")
    bases = chain((first,), bases)
    if isinstance(first, Tensor):
        return linear_combination(bases, coefficients)
    out = scratch = None
    for k, basis in enumerate(bases):
        out, scratch = accumulate(out, scratch, basis, coefficients[k])
    return out


class SpectralFilter:
    """Base class for all 27 filters of the taxonomy.

    Subclasses implement :meth:`_bases` — a generator of basis signals
    ``T^(k) x`` — and declare coefficients. Everything else (full-batch
    forward, mini-batch precompute, frequency response) is derived here.

    Parameters
    ----------
    num_hops:
        Polynomial order K (the paper's universal setting is K = 10).
    """

    #: Registry name, e.g. ``"ppr"``.
    name: str = "abstract"
    #: Taxonomy category: ``"fixed"`` | ``"variable"`` | ``"bank"``.
    category: str = "abstract"
    #: Asymptotic complexity strings reported in Table 1.
    time_complexity: str = "O(KmF)"
    memory_complexity: str = "O(nF)"

    def __init__(self, num_hops: int = 10):
        if num_hops < 0:
            raise FilterError(f"num_hops must be non-negative, got {num_hops}")
        self.num_hops = int(num_hops)

    # ------------------------------------------------------------------
    # subclass interface
    # ------------------------------------------------------------------
    def _bases(self, ctx: Context, x: Signal) -> Iterator[Signal]:
        """Yield basis signals ``T^(0) x, …, T^(K) x``."""
        raise NotImplementedError

    def basis_count(self) -> int:
        """Number of basis terms produced by :meth:`_bases`."""
        return self.num_hops + 1

    def fixed_coefficients(self) -> Optional[np.ndarray]:
        """Constant θ for fixed filters; ``None`` when θ is learnable."""
        return None

    def default_coefficients(self) -> np.ndarray:
        """Initialization for learnable θ (ignored by fixed filters)."""
        fixed = self.fixed_coefficients()
        if fixed is not None:
            return fixed
        raise NotImplementedError

    def coefficient_transform(self) -> Optional[np.ndarray]:
        """Optional matrix C mapping raw params to basis weights (w = C θ).

        Used by Chebyshev interpolation, where the learnable parameters live
        at interpolation nodes rather than on the basis directly.
        """
        return None

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    def parameter_spec(self) -> Dict[str, ParamSpec]:
        """Parameters the enclosing model must create for this filter."""
        if self.category == "fixed":
            return {}
        init = np.asarray(self.default_coefficients(), dtype=np.float32)
        return {"theta": ParamSpec(init.shape, init)}

    # ------------------------------------------------------------------
    # forward paths
    # ------------------------------------------------------------------
    def forward(self, ctx: Context, x: Signal, params: Optional[Dict] = None) -> Signal:
        """Filter a signal: ``g(L̃) x`` under any context.

        ``params`` maps the names from :meth:`parameter_spec` to tensors
        (full-batch training) or numpy arrays (analysis). Fixed filters
        ignore it.
        """
        coefficients = self._resolve_coefficients(params)
        return _combine(self._bases(ctx, x), coefficients)

    def _resolve_coefficients(self, params: Optional[Dict]):
        fixed = self.fixed_coefficients()
        if fixed is not None:
            return fixed
        if not params or "theta" not in params:
            raise FilterError(f"filter {self.name!r} requires 'theta' parameter")
        theta = params["theta"]
        transform = self.coefficient_transform()
        if transform is None:
            return theta
        # w = Cθ as Σ_j θ_j·C[:, j] in term order, not a BLAS product:
        # its bits are then the same on every host.
        if isinstance(theta, Tensor):
            return linear_combination(transform.astype(np.float32).T, theta,
                                      meter="matmul")
        return _combine(transform.T, np.asarray(theta))

    # ------------------------------------------------------------------
    # mini-batch path
    # ------------------------------------------------------------------
    def precompute(self, graph: Graph, x: np.ndarray, rho: float = 0.5,
                   backend: str = "csr") -> np.ndarray:
        """CPU precomputation stage: return channels ``(n, C, F)``.

        Fixed filters fully combine during precompute (C = 1, the O(nF)
        memory row of Table 1). Variable filters must keep every basis term
        so θ can be learned downstream (C = K + 1, the paper's K-fold RAM
        increase for variable filters under mini-batch).

        The float32 channel tensor is allocated once and each basis term is
        written into it as the recurrence yields it, so outside a planner
        scope a term is dropped as soon as the recurrence has moved past
        it: the peak is the channels plus the recurrence's live terms.
        """
        ctx = PropagationContext.for_graph(graph, rho, backend)
        x = np.asarray(x, dtype=np.float32)
        channels = np.empty((x.shape[0], self._channel_count()) + x.shape[1:],
                            dtype=np.float32)
        self._fill_channels(ctx, x, channels)
        return channels

    def _channel_count(self) -> int:
        """C of :meth:`precompute`'s ``(n, C, F)`` result."""
        return 1 if self.category == "fixed" else self.basis_count()

    def _fill_channels(self, ctx: Context, x: np.ndarray,
                       out: np.ndarray) -> None:
        """Write this filter's precompute channels into ``out`` (n, C, F)."""
        if self.category == "fixed":
            out[:, 0] = self.forward(ctx, x)
            return
        count = out.shape[1]
        filled = 0
        for basis in self._bases(ctx, x):
            if filled == count:
                raise FilterError(f"filter {self.name!r} yields more than "
                                  f"basis_count() = {count} basis terms")
            out[:, filled] = basis
            del basis  # not held while the recurrence computes the next
            filled += 1
        if filled != count:
            raise FilterError(f"filter {self.name!r} yields {filled} basis "
                              f"terms, basis_count() = {count}")

    def batch_combine(self, batch: Tensor, params: Optional[Dict] = None) -> Tensor:
        """Combine precomputed channels for a row batch ``(B, C, F) → (B, F)``."""
        if self.category == "fixed":
            return batch.reshape(batch.shape[0], batch.shape[2])
        coefficients = self._resolve_coefficients(params)
        return contract_channels(batch, as_tensor(coefficients, dtype=np.float32))

    def output_width(self, in_features: int) -> int:
        """Feature width after :meth:`forward` (banks with concat widen it)."""
        return in_features

    # ------------------------------------------------------------------
    # spectral analysis
    # ------------------------------------------------------------------
    def response(self, lams: np.ndarray,
                 params: Optional[Dict[str, np.ndarray]] = None) -> np.ndarray:
        """Exact frequency response ``g(λ)`` on an eigenvalue grid.

        For variable filters, pass the learned parameters (numpy arrays);
        defaults to the initialization otherwise.
        """
        if params is None and self.category != "fixed":
            params = {name: spec.init for name, spec in self.parameter_spec().items()}
        if params is not None:
            params = {k: _to_numpy(v) for k, v in params.items()}
        ctx = SpectralContext(lams)
        ones = np.ones_like(ctx.lams)
        return np.asarray(self.forward(ctx, ones, params), dtype=np.float64)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def hyperparameters(self) -> Dict[str, float]:
        """Tunable (non-learned) hyperparameters, shown in ``repr``."""
        return {}

    def __repr__(self) -> str:
        hp = ", ".join(f"{k}={v}" for k, v in self.hyperparameters().items())
        suffix = f", {hp}" if hp else ""
        return f"{type(self).__name__}(K={self.num_hops}{suffix})"


def _to_numpy(value) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value)


def monomial_bases(ctx: Context, x: Signal, count: int,
                   operator: str = "adj") -> Iterator[Signal]:
    """Shared generator of operator powers: ``x, P x, P² x, …``.

    ``operator`` selects ``adj`` (Ã) or ``lap`` (L̃). Served through the
    basis planner when a :func:`repro.runtime.plan.plan_scope` is active,
    so every monomial-basis filter in a sweep shares one prefix chain.
    """
    family = "monomial_adj" if operator == "adj" else "monomial_lap"
    return plan.chain_bases(ctx, x, family, (), count)
