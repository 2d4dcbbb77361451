"""Ablations of the design choices called out in DESIGN.md §5.

1. **Recurrence-as-coefficients (Favard).** Our Favard runs its learnable
   three-term recurrence on (K+1)-dim coefficient vectors over monomial
   hops instead of n×F matrices. The ablation verifies the two give
   identical outputs and that the coefficient form does not add graph
   propagations.
2. **CSR vs gather-scatter backend.** Same numerics (bit-equal), very
   different footprint and time: the gather backend materializes, then
   reduces, O(mF) messages.
3. **Streaming vs stored combination (fixed vs variable memory).** Fixed
   filters' streaming accumulation holds one channel; storing every hop
   (what variable filters must do) costs (K+1)×.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff import Tensor
from repro.filters import FavardFilter, make_filter
from repro.filters.base import PropagationContext
from repro.bench import load_dataset
from repro.runtime import DeviceModel

from .conftest import emit, run_once


def _favard_naive_forward(filter_, graph, x, params):
    """Reference Favard: run the recurrence on full n×F matrices."""
    alpha = np.log1p(np.exp(params["alpha_raw"].astype(np.float64)))
    beta = params["beta"].astype(np.float64)
    theta = params["theta"].astype(np.float64)
    sqrt_alpha = np.sqrt(alpha + 1e-6)
    adjacency = graph.normalized_adjacency(0.5)
    terms = [x.astype(np.float64) / sqrt_alpha[0]]
    hops = 0
    for k in range(1, filter_.num_hops + 1):
        propagated = adjacency @ terms[-1]
        hops += 1
        term = propagated - beta[k] * terms[-1]
        if k >= 2:
            term = term - sqrt_alpha[k - 1] * terms[-2]
        terms.append(term / sqrt_alpha[k])
    out = sum(theta[k] * terms[k] for k in range(filter_.num_hops + 1))
    return out, hops


def test_ablation_favard_coefficient_recurrence(benchmark):
    graph = load_dataset("cora", scale=0.1)
    rng = np.random.default_rng(0)
    filter_ = FavardFilter(num_hops=8)
    params = {n: (s.init + 0.2 * rng.normal(size=s.shape)).astype(np.float32)
              for n, s in filter_.parameter_spec().items()}
    x = rng.normal(size=(graph.num_nodes, 16)).astype(np.float32)

    def run_both():
        ctx = PropagationContext.for_graph(graph)
        ours = np.asarray(filter_.forward(ctx, x, params), dtype=np.float64)
        naive, naive_hops = _favard_naive_forward(filter_, graph, x, params)
        return ours, ctx.hops, naive, naive_hops

    ours, our_hops, naive, naive_hops = run_once(benchmark, run_both)
    emit([{"impl": "coefficient-recurrence", "hops": our_hops},
          {"impl": "matrix-recurrence", "hops": naive_hops}],
         title="Ablation: Favard implementations")
    scale = max(np.abs(naive).max(), 1.0)
    np.testing.assert_allclose(ours, naive, atol=1e-3 * scale)
    assert our_hops == naive_hops  # same K propagations, no extra graph work


def test_ablation_backend_memory(benchmark):
    graph = load_dataset("tolokers", scale=0.3)  # dense: m/n ≈ 88
    filter_ = make_filter("ppr", num_hops=8)
    x = graph.features

    def run_backends():
        peaks, seconds = {}, {}
        for backend in ("csr", "coo_gather"):
            # Building the context normalizes the adjacency (memoized on
            # the graph), so it stays outside the clock; the time is the
            # median of five forwards.
            ctx = PropagationContext.for_graph(graph, backend=backend)
            samples = []
            for _ in range(5):
                device = DeviceModel()
                started = time.perf_counter()
                with device.step():
                    filter_.forward(ctx, Tensor(x))
                samples.append(time.perf_counter() - started)
            seconds[backend] = float(np.median(samples))
            peaks[backend] = device.peak_bytes
        return peaks, seconds

    peaks, seconds = run_once(benchmark, run_backends)
    emit([{"backend": b, "peak_bytes": p, "forward_s": round(seconds[b], 4)}
          for b, p in peaks.items()],
         title="Ablation: propagation backend footprint and time")
    # The gather backend's O(mF) message buffers dominate on dense graphs.
    assert peaks["coo_gather"] > 2 * peaks["csr"]


def test_ablation_streaming_vs_stored(benchmark):
    graph = load_dataset("arxiv", scale=0.01)
    x = graph.features

    def run_both():
        fixed = make_filter("ppr", num_hops=10).precompute(graph, x)
        variable = make_filter("monomial_var", num_hops=10).precompute(graph, x)
        return fixed.nbytes, variable.nbytes

    fixed_bytes, variable_bytes = run_once(benchmark, run_both)
    emit([{"strategy": "streaming (fixed θ)", "bytes": fixed_bytes},
          {"strategy": "stored per hop (learnable θ)", "bytes": variable_bytes}],
         title="Ablation: channel storage")
    assert variable_bytes == 11 * fixed_bytes
