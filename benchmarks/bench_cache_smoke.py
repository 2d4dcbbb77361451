"""Cache-layer smoke gate: the caches must be *on* and must be *free*.

Runs the same small full-batch training twice — sparse-compute caches on
and bypassed — under telemetry, then checks the contract the cache layer
(:mod:`repro.runtime.cache`) makes:

- **regression gate** (wired into CI): ``cache.spmm_t.hit`` must be
  non-zero during a training run. A silently-disabled cache would pass
  every numeric test while regressing every efficiency number, so this is
  the canary.
- **invisibility**: final epoch losses and test scores are identical to
  the last bit with the caches on and off.
- **delta**: the transpose-materialization count drops from one per epoch
  to ≤ 1 per matrix, measured with the ``ops.spmm.*`` counters.
- **backend parity**: ``ppr`` and ``chebyshev`` trained full batch on the
  ``coo_gather`` backend at ρ = ½ (a symmetric operator, its own
  transpose) and ρ = 0.3 predict the same bits with the caches on and
  off, and the same bits as on the ``csr`` backend.

The before/after counter comparison is emitted as a table and persisted
as JSON under ``benchmarks/results/cache_smoke.json`` so the FLOP/byte
delta is diffable across commits.
"""

from __future__ import annotations

import json

import numpy as np

from repro import telemetry
from repro.datasets import random_split, synthesize
from repro.runtime import cache, context
from repro.tasks import run_node_classification
from repro.training import TrainConfig

from .conftest import RESULTS_DIR, emit, env_epochs, run_once

EPOCHS_DEFAULT = 6
#: (filter, ρ) cells of the backend-parity check.
BACKEND_CELLS = [(name, rho) for name in ("ppr", "chebyshev")
                 for rho in (0.5, 0.3)]
SPMM_COUNTERS = ("ops.spmm.calls", "ops.spmm.flops", "ops.spmm.bytes",
                 "ops.spmm.transpose_builds", "ops.spmm.transpose_bytes",
                 "cache.spmm_t.hit", "cache.spmm_t.miss",
                 "cache.norm_adj.hit", "cache.norm_adj.miss")


def _one_run(cache_on: bool, epochs: int):
    """Train once on a fresh synthetic graph; return (result, counters)."""
    graph = synthesize("cora", scale=0.15, seed=5)
    split = random_split(graph.num_nodes, seed=0)
    config = TrainConfig(epochs=epochs, patience=0, eval_every=epochs)
    cache.clear_transpose_cache()
    telemetry.configure()
    try:
        if cache_on:
            result = run_node_classification(
                graph, "ppr", scheme="full_batch", config=config, split=split)
        else:
            with context.using(cache=False):
                result = run_node_classification(
                    graph, "ppr", scheme="full_batch", config=config,
                    split=split)
        counters = dict(telemetry.get_metrics().snapshot()["counters"])
    finally:
        telemetry.shutdown()
    counters["transpose_builds_process"] = cache.transpose_build_count()
    return result, counters


def _predictions(name: str, rho: float, backend: str, cache_on: bool,
                 epochs: int) -> np.ndarray:
    """Full-batch logits of one (filter, ρ, backend) fit."""
    graph = synthesize("cora", scale=0.15, seed=5)
    split = random_split(graph.num_nodes, seed=0)
    config = TrainConfig(epochs=epochs, patience=0, eval_every=epochs,
                         rho=rho, backend=backend)
    with context.using(cache=cache_on):
        return run_node_classification(
            graph, name, scheme="full_batch", config=config,
            split=split).predictions


def _backend_parity(epochs: int) -> list:
    rows = []
    for name, rho in BACKEND_CELLS:
        edge = _predictions(name, rho, "coo_gather", True, epochs)
        rows.append({
            "filter": name, "rho": rho,
            "cache_on_off_bit_equal": bool(np.array_equal(
                edge, _predictions(name, rho, "coo_gather", False, epochs))),
            "csr_bit_equal": bool(np.array_equal(
                edge, _predictions(name, rho, "csr", True, epochs))),
        })
    return rows


def _cache_smoke(epochs: int) -> dict:
    cached_result, cached_counters = _one_run(cache_on=True, epochs=epochs)
    plain_result, plain_counters = _one_run(cache_on=False, epochs=epochs)
    return {
        "backend_parity": _backend_parity(epochs),
        "epochs": epochs,
        "cached": {"test_score": cached_result.test_score,
                   "counters": cached_counters},
        "uncached": {"test_score": plain_result.test_score,
                     "counters": plain_counters},
        "predictions_bit_identical": bool(
            np.array_equal(cached_result.predictions,
                           plain_result.predictions)),
    }


def test_cache_smoke_gate(benchmark):
    epochs = env_epochs(EPOCHS_DEFAULT)
    report = run_once(benchmark, _cache_smoke, epochs)
    cached = report["cached"]["counters"]
    plain = report["uncached"]["counters"]

    rows = [{"mode": mode,
             **{name.split(".")[-1] if name.startswith("ops.spmm")
                else name.replace("cache.", ""): counters.get(name, 0)
                for name in SPMM_COUNTERS}}
            for mode, counters in (("cached", cached), ("uncached", plain))]
    emit(rows, title="cache layer: spmm counters, cache on vs off")
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "cache_smoke.json", "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)

    # --- CI regression gate: a training run must actually hit the cache.
    assert cached.get("cache.spmm_t.hit", 0) > 0, \
        "cache.spmm_t.hit == 0: the transpose cache is silently disabled"
    assert cached.get("cache.norm_adj.hit", 0) > 0, \
        "cache.norm_adj.hit == 0: the normalization memo is silently disabled"

    # --- invisibility: numerics unchanged to the last bit.
    assert report["predictions_bit_identical"]
    assert report["cached"]["test_score"] == report["uncached"]["test_score"]

    # --- delta: one propagation matrix → ≤ 1 transpose materialization,
    # versus one per epoch (per backward closure) without the cache.
    assert cached["ops.spmm.transpose_builds"] <= 1
    assert plain["ops.spmm.transpose_builds"] >= report["epochs"]
    assert cached["ops.spmm.transpose_bytes"] < plain["ops.spmm.transpose_bytes"]
    # forward spmm volume itself is identical — the cache only removes
    # redundant transpose materializations, it does not change propagation
    assert cached["ops.spmm.calls"] == plain["ops.spmm.calls"]
    assert cached["ops.spmm.flops"] == plain["ops.spmm.flops"]

    # --- backend parity: coo_gather predicts csr's bits, cached or not.
    emit(report["backend_parity"],
         title="coo_gather predictions: cache on vs off, vs csr")
    for row in report["backend_parity"]:
        assert row["cache_on_off_bit_equal"], row
        assert row["csr_bit_equal"], row
