"""The six benchmark workloads and how one repetition of each runs.

Every workload is a slice of the paper's grid (filter × scheme × dataset)
chosen so that a *different layer* of the repo bounds its wall time; the
``why`` strings are the record of that choice and are mirrored verbatim in
``BENCHMARK.json``. Sizes are set by the time budget of a benchmark run
(about one second per repetition), not by the paper's scale: see the
README's sizing section before changing one.

The filter trio is one filter per taxonomy category (``ppr`` fixed,
``chebyshev`` variable, ``fbgnn2`` bank); K = 10 and hidden = 64 are the
paper's universal settings and every other ``TrainConfig`` field keeps its
default. ``patience=0, eval_every=10**9`` fixes the epoch count, so the
work of a repetition does not depend on the data.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

TRIO = ("ppr", "chebyshev", "fbgnn2")
SWEEP_FILTERS = ("linear", "impulse", "monomial", "ppr", "hk", "gaussian",
                 "monomial_var", "horner", "chebyshev", "chebinterp",
                 "clenshaw", "fbgnn2")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    scale: float
    scheme: str
    filters: Tuple[str, ...]
    epochs: int
    backend: str = "csr"
    #: ``None`` → cells run one by one through ``run_node_classification``;
    #: a number → the grid runs through ``efficiency_experiment`` with that
    #: many pool workers (1 = inline).
    sweep_workers: Optional[int] = None
    #: Every cell's test score must reach this. It guards against gross
    #: breakage only: a few epochs on graphs this small leave the ROC-AUC
    #: workloads within 0.1 of chance on some seeds, so the floor sits at
    #: chance there (0.5) and at 2-3x chance for the accuracy workloads —
    #: in every case below the minimum seen over 27 seeds, so a
    #: float-reordering optimisation passes.
    score_floor: float = 0.0

    @property
    def is_sweep(self) -> bool:
        return self.sweep_workers is not None


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload(
        "fb_ewise",
        "Low-degree graph (roman, avg degree 2.9), full batch: autodiff elementwise "
        "ops and filters.base._combine dominate fit and spmm is minor, so a fused "
        "combine shows here.",
        dataset="roman", scale=0.5, scheme="full_batch", filters=TRIO,
        epochs=2, score_floor=0.15),
    Workload(
        "fb_spmm",
        "Dense graph (tolokers, avg degree 87), full batch: csr spmm forward plus "
        "cached-transpose backward dominate fit, so a propagation change shows here "
        "and barely on fb_ewise.",
        dataset="tolokers", scale=0.2, scheme="full_batch", filters=TRIO,
        epochs=4, score_floor=0.5),
    Workload(
        "fb_edge",
        "Same spmm entry point through the coo_gather backend (the paper's EdgeIndex "
        "analogue): np.add.at scatter and the metered O(mF) message buffer; a "
        "csr-only change must not move it.",
        dataset="minesweeper", scale=0.12, scheme="full_batch",
        filters=("ppr", "chebyshev"), epochs=4, backend="coo_gather",
        score_floor=0.5),
    Workload(
        "mb_decoupled",
        "Mini-batch on pokec (where the paper's full batch OOMs): graph ops run once "
        "in precompute, training is batch_combine plus dense matmul over (B,K+1,F) "
        "channels; the host-RAM-heavy case.",
        dataset="pokec", scale=0.01, scheme="mini_batch", filters=TRIO,
        epochs=10, score_floor=0.6),
    Workload(
        "sweep_serial",
        "12-filter mini-batch grid run inline: the only place the planner's "
        "cross-filter chain hits, the norm/transpose caches and the graph memo work "
        "across cells.",
        dataset="pokec", scale=0.005, scheme="mini_batch",
        filters=SWEEP_FILTERS, epochs=3, sweep_workers=1),
    Workload(
        "sweep_pool2",
        "The same grid on a 2-worker process pool with the shared term store: "
        "process-per-cell dispatch, per-worker synthesis, shm claim/publish/attach, "
        "result fold.",
        dataset="pokec", scale=0.005, scheme="mini_batch",
        filters=SWEEP_FILTERS, epochs=3, sweep_workers=2),
]}


@dataclass
class Inputs:
    """What set-up builds for a workload: generated data only."""

    seed: int
    config: object                  # TrainConfig
    graph: object = None            # cell workloads only; sweeps load inside
    split: object = None


def prepare(workload: Workload, seed: int, scale_mult: float = 1.0) -> Inputs:
    """Build the inputs from the seed (no program state is touched)."""
    from repro.datasets import get_spec, random_split, synthesize
    from repro.training.loop import TrainConfig

    config = TrainConfig(epochs=workload.epochs, patience=0,
                         eval_every=10 ** 9, backend=workload.backend,
                         seed=seed, metric=get_spec(workload.dataset).metric)
    inputs = Inputs(seed=seed, config=config)
    if not workload.is_sweep:
        inputs.graph = synthesize(workload.dataset,
                                  scale=workload.scale * scale_mult, seed=seed)
        inputs.split = random_split(inputs.graph.num_nodes, seed=seed)
    return inputs


def run_once(workload: Workload, inputs: Inputs, scale_mult: float = 1.0,
             device_capacity_gib: Optional[float] = None,
             tracer=None) -> Dict:
    """One repetition: every cell of the workload, back to back.

    Returns the repetition record: ``wall_s``, the per-cell rows (paper
    columns plus the output-check verdict) and, for sweeps, the pool and
    shared-store accounting. ``tracer`` is the outside-in tracer of a
    traced pass; the harness opens its own enclosing spans through it.
    """
    if workload.is_sweep:
        return _run_sweep(workload, inputs, scale_mult, device_capacity_gib,
                          tracer)
    return _run_cells(workload, inputs, device_capacity_gib, tracer)


def _span(tracer, name, cell=None):
    return tracer.span(name, cell) if tracer else contextlib.nullcontext()


def _run_cells(workload, inputs, device_capacity_gib, tracer) -> Dict:
    import numpy as np
    from repro.tasks.node_classification import run_node_classification

    graph = inputs.graph
    cells: List[Dict] = []
    started = time.perf_counter()
    for filter_name in workload.filters:
        with _span(tracer, "training.fit", filter_name):
            result = run_node_classification(
                graph, filter_name, scheme=workload.scheme,
                config=inputs.config, split=inputs.split,
                device_capacity_gib=device_capacity_gib)
        cells.append((filter_name, result))
    wall = time.perf_counter() - started

    rows = []
    for filter_name, result in cells:
        problems = []
        if result.status != "ok":
            problems.append(f"status={result.status}")
        else:
            predictions = result.predictions
            if predictions is None or predictions.shape != (
                    graph.num_nodes, graph.num_classes):
                problems.append("predictions shape")
            elif not np.isfinite(predictions).all():
                problems.append("predictions not finite")
            if not result.test_score >= workload.score_floor:
                problems.append(f"test_score {result.test_score:.4f} < "
                                f"floor {workload.score_floor}")
        stages = result.profiler
        rows.append({
            "cell": filter_name,
            "problems": problems,
            "test_score": result.test_score,
            "precompute_s": result.precompute_seconds,
            "train_s": stages.seconds("train"),
            "train_s_per_epoch": result.train_seconds_per_epoch,
            "inference_s": result.inference_seconds,
            "ram_bytes": result.ram_peak_bytes,
            "device_bytes": result.device_peak_bytes,
        })
    return {"wall_s": wall, "cells": rows}


def _run_sweep(workload, inputs, scale_mult, device_capacity_gib,
               tracer) -> Dict:
    from repro.bench.experiments import efficiency_experiment
    from repro.runtime.pool import PoolConfig, last_run_stats
    from repro.runtime.shm import SEGMENT_PREFIX, SharedTermStore, store_scope

    pooled = workload.sweep_workers > 1
    # The scopes bench/__main__.py enters for a pooled grid sweep.
    store = SharedTermStore() if pooled else None
    scope = store_scope(store) if pooled else contextlib.nullcontext()
    started = time.perf_counter()
    with scope, _span(tracer, "bench.grid"):
        rows = efficiency_experiment(
            (workload.dataset,), filters=workload.filters,
            schemes=(workload.scheme,), config=inputs.config,
            scale_override=workload.scale * scale_mult,
            device_capacity_gib=device_capacity_gib, seed=inputs.seed,
            pool=PoolConfig(workers=workload.sweep_workers) if pooled else None)
    wall = time.perf_counter() - started

    cells = []
    for row in rows:
        problems = [] if row["status"] == "ok" else [f"status={row['status']}"]
        cells.append({
            "cell": row["filter"],
            "problems": problems,
            "precompute_s": row.get("precompute_s", 0.0),
            "train_s": row.get("train_s_per_epoch", 0.0) * workload.epochs,
            "train_s_per_epoch": row.get("train_s_per_epoch", 0.0),
            "inference_s": row.get("inference_s", 0.0),
            "ram_bytes": row.get("ram_bytes", 0),
            "device_bytes": row.get("device_bytes", 0),
        })
    record = {"wall_s": wall, "cells": cells, "problems": []}
    if len(rows) != len(workload.filters):
        record["problems"].append(
            f"{len(rows)} rows for a grid of {len(workload.filters)}")
    stats = last_run_stats() or {}
    record["pool"] = {
        "workers": workload.sweep_workers,
        "retries": stats.get("retries", 0),
        "cell_seconds": [c["seconds"] for c in stats.get("per_cell", [])],
    }
    if pooled:
        shm = store.stats()
        leaked = [name for name in os.listdir("/dev/shm")
                  if name.startswith(f"{SEGMENT_PREFIX}{store.run_id}")]
        if leaked:
            record["problems"].append(f"leaked /dev/shm segments: {leaked}")
        record["shm"] = {key: shm.get(key, 0) for key in
                         ("hits", "publishes", "peak_bytes",
                          "segments_unlinked")}
    return record
