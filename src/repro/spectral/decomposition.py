"""Eigendecomposition helpers for spectral analysis.

Full eigendecomposition is O(n³) and — as the paper stresses — prohibitive
at graph scale; these helpers exist for the analysis tasks that need exact
spectra on small graphs (signal regression, response validation).

Observability: the decomposition feeds the autodiff op hook
(:func:`repro.autodiff.tensor._notify_op`), so FLOP accounting sees the
decomposition cost that PR 1's counters could not — ``ops.eig.calls`` /
``ops.eig.flops`` / ``ops.eig.bytes`` on any telemetry-enabled run, with
the output bytes attributed to the open span like every other op. The
dense FLOP model is the standard ≈ 9n³ for a full symmetric
eigendecomposition (reduction to tridiagonal + QR iteration + back-
transform).

Caching: dense eigenpairs are memoized through
:mod:`repro.runtime.cache` keyed on (graph identity, adjacency mutation
fingerprint, ρ) with traffic on ``cache.eig.{hit,miss,evict}``. Cached
arrays are returned read-only so a caller cannot silently corrupt the
shared spectra; the memo is bypassed entirely under ``--no-cache`` /
``repro.runtime.context.using(cache=False)``, restoring seed behaviour.
"""

from __future__ import annotations

import weakref
from typing import Tuple

import numpy as np

from ..autodiff.tensor import _notify_op
from ..errors import GraphError
from ..graph.graph import Graph
from ..runtime import cache as _cache
from ..runtime import context as _context

#: Dense decomposition guardrail; above this the O(n³) cost is the point
#: the paper makes about decomposition-based frameworks.
MAX_DENSE_NODES = 5000

#: Bound on memoized eigenpairs; each entry is O(n²) floats, so keep few.
EIG_CACHE_ENTRIES = 8

#: FLOPs of a full symmetric eigendecomposition: tridiagonal reduction
#: (4/3 n³) + implicit-QR eigenvalues + accumulating the eigenvector
#: back-transform ≈ 9n³ total (Golub & Van Loan ballpark).
DENSE_EIG_FLOPS_PER_N3 = 9


def _notify_dense_eig(eigenvalues: np.ndarray,
                      eigenvectors: np.ndarray) -> None:
    n = eigenvalues.shape[0]
    _notify_op("eig", DENSE_EIG_FLOPS_PER_N3 * n ** 3,
               eigenvalues.nbytes + eigenvectors.nbytes)


def _decompose_dense(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    laplacian = graph.laplacian(rho=0.5).toarray().astype(np.float64)
    laplacian = (laplacian + laplacian.T) / 2.0  # enforce exact symmetry
    eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
    eigenvalues = np.clip(eigenvalues, 0.0, 2.0)
    _notify_dense_eig(eigenvalues, eigenvectors)
    return eigenvalues, eigenvectors


_eig_cache = _cache.LRUCache(EIG_CACHE_ENTRIES, counter_prefix="cache.eig")


def clear_eig_cache() -> None:
    """Drop every memoized eigenpair (tests, ``--no-cache`` resets)."""
    _eig_cache.clear()


def laplacian_eigendecomposition(
    graph: Graph, rho: float = 0.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Full spectrum of ``L̃``: eigenvalues (ascending) and eigenvectors.

    Uses the symmetric solver: at ρ = 1/2 the normalized Laplacian is
    symmetric; for ρ ≠ 1/2 it is similar to the symmetric one, and we
    decompose the symmetric similar matrix so eigenvalues stay real.

    Results are memoized per (graph, adjacency fingerprint, ρ): repeated
    calls on an unmutated graph return the same (read-only) arrays and
    count a ``cache.eig.hit`` instead of re-running the O(n³) solve.
    """
    n = graph.num_nodes
    if n > MAX_DENSE_NODES:
        raise GraphError(
            f"dense eigendecomposition capped at {MAX_DENSE_NODES} nodes "
            f"(got {n})"
        )
    if not _context.current().config.cache:
        return _decompose_dense(graph)

    key = (id(graph), float(rho))
    token = _cache.matrix_token(graph.adjacency)

    def validate(entry) -> bool:
        ref, cached_token, _ = entry
        return ref() is graph and cached_token == token

    cached = _eig_cache.get(key, validate=validate)
    if cached is not _cache.MISSING:
        return cached[2]
    eigenvalues, eigenvectors = _decompose_dense(graph)
    # Shared across callers from now on — freeze to catch silent mutation.
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)

    def _on_collect(_ref, _key=key):
        _eig_cache.discard(_key)

    _eig_cache.put(key, (weakref.ref(graph, _on_collect), token,
                         (eigenvalues, eigenvectors)))
    return eigenvalues, eigenvectors
