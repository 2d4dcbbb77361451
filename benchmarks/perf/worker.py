"""One measuring process of the perf benchmark (started by ``run.py``).

A worker is a fresh interpreter: it builds the workload's inputs from the
seed, runs one full discarded warm-up pass (import, synthesis, cold
normalisation / transpose / planner fills all end up in ``setup_s``), then
repeats the workload until its share of ``--seconds`` is spent and prints
one JSON record as the last line of stdout.

Modes:

- ``timed``      nothing attached; the only source of end-to-end numbers.
- ``telemetry``  (T1) each untraced repetition is followed by one under
  ``repro.telemetry.configure()``: exact counters, ``epoch`` spans, ledger.
- ``wrapped``    (T2) each untraced repetition is followed by one under the
  outside-in wrappers of ``trace.py``; set-up runs wrapped too, so the cold
  path (synthesis, normalisation misses) is on the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from benchmarks.perf.trace import (
    Tracer,
    aggregate,
    unattributed_share,
    write_trace,
)
from benchmarks.perf.workloads import WORKLOADS, prepare, run_once

#: Layers that only (or mostly) run cold: their per-layer numbers add the
#: set-up phase to the steady-state repetition.
COLD_SPAN_METRICS = ("datasets.synthesize", "graph.normalize")
COLD_COUNTERS = {"runtime.cache.transpose.misses": "cache.spmm_t.miss",
                 "runtime.cache.norm.misses": "cache.norm_adj.miss"}


def rep_layers(workload, rep: Dict) -> Dict[str, float]:
    """Per-layer numbers an untraced repetition already carries."""
    cells = rep["cells"]
    workers = workload.sweep_workers or 1
    stages = {stage: sum(c[f"{stage}_s"] for c in cells)
              for stage in ("precompute", "train", "inference")}
    layers = {f"training.{stage}_s": value for stage, value in stages.items()}
    layers["training.other_s"] = rep["wall_s"] - sum(stages.values()) / workers
    seconds = rep.get("pool", {}).get("cell_seconds") or [0.0]
    busy = sum(seconds)
    sweep = workload.is_sweep
    layers["runtime.pool.cell_p50_s"] = statistics.median(seconds)
    layers["runtime.pool.cell_max_s"] = max(seconds)
    layers["runtime.pool.retries"] = rep.get("pool", {}).get("retries", 0)
    layers["runtime.pool.parallel_efficiency"] = (
        busy / (workers * rep["wall_s"]) if sweep else 0.0)
    layers["bench.grid.overhead_s"] = (
        rep["wall_s"] - busy / workers if sweep else 0.0)
    for key in ("hits", "publishes", "peak_bytes", "segments_unlinked"):
        layers[f"runtime.shm.{key}"] = rep.get("shm", {}).get(key, 0)
    return layers


def telemetry_layers(counters: Dict[str, float], ledger: Dict,
                     events: List[Dict]) -> Dict[str, float]:
    """T1: what the program's own telemetry reports for one repetition."""
    hits = counters.get("plan.terms.hit", 0)
    misses = counters.get("plan.terms.miss", 0)
    epochs = [e["duration_s"] for e in events
              if e.get("type") == "span" and e.get("name") == "epoch"] or [0.0]
    return {
        "autodiff.ewise.bytes": counters.get("ops.ewise.bytes", 0),
        "_ops.spmm.flops": counters.get("ops.spmm.flops", 0),
        "runtime.plan.hits": hits,
        "runtime.plan.misses": misses,
        "runtime.plan.spmm_avoided": counters.get("plan.spmm_avoided", 0),
        "runtime.plan.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.cache.transpose.hits": counters.get("cache.spmm_t.hit", 0),
        "runtime.cache.transpose.misses": counters.get("cache.spmm_t.miss", 0),
        "runtime.cache.norm.hits": counters.get("cache.norm_adj.hit", 0),
        "runtime.cache.norm.misses": counters.get("cache.norm_adj.miss", 0),
        "training.epoch_p50_s": statistics.median(epochs),
        "training.epoch_max_s": max(epochs),
        "telemetry.events": len(events),
        "telemetry.alloc_events": ledger.get("alloc_count", 0),
        "telemetry.ledger_peak_bytes": ledger.get("peak_bytes", 0),
    }


def span_layers(workload, tracer: Tracer, rep: Dict) -> Dict[str, float]:
    """T2: busy / self / calls per layer from one wrapped repetition."""
    totals = aggregate(tracer.spans)

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0)

    def with_backward(name: str) -> float:
        return get(name, "busy_s") + get(f"{name}.bwd", "busy_s")

    layers = {
        "autodiff.ewise.busy_s": with_backward("autodiff.ewise"),
        "autodiff.spmm_csr.busy_s": with_backward("autodiff.spmm_csr"),
        "autodiff.spmm_coo.busy_s": with_backward("autodiff.spmm_coo"),
        "autodiff.matmul.busy_s": with_backward("autodiff.matmul"),
        "autodiff.spmm_coo.msg_bytes":
            tracer.counters.get("autodiff.spmm_coo.msg_bytes", 0),
        "_spmm_forward_busy_s": (get("autodiff.spmm_csr", "busy_s")
                                 + get("autodiff.spmm_numpy", "busy_s")),
        "runtime.plan.chain_bases.busy_s":
            get("runtime.plan.chain_bases", "busy_s"),
        "runtime.cache.transpose.busy_s":
            get("runtime.cache.transpose", "busy_s"),
        "runtime.pool.execute.busy_s": get("runtime.pool.execute", "busy_s"),
        "trace.unattributed_share":
            unattributed_share(tracer.spans, rep["wall_s"]),
    }
    for name, fields in {
        "datasets.synthesize": ("busy_s", "calls"),
        "graph.normalize": ("busy_s", "calls"),
        "autodiff.ewise": ("calls",),
        "autodiff.spmm_csr": ("calls",),
        "autodiff.spmm_coo": ("calls",),
        "autodiff.spmm_numpy": ("busy_s", "calls"),
        "autodiff.matmul": ("calls",),
        "autodiff.dropout": ("busy_s", "calls"),
        "autodiff.cross_entropy": ("busy_s",),
        "autodiff.backward": ("busy_s", "calls"),
        "autodiff.optim_step": ("busy_s",),
        "filters.forward": ("busy_s", "self_s"),
        "filters.combine": ("busy_s", "self_s"),
        "filters.precompute": ("busy_s", "self_s"),
        "filters.batch_combine": ("busy_s", "calls"),
        "models.forward": ("busy_s", "self_s"),
    }.items():
        for field in fields:
            layers[f"{name}.{field}"] = get(name, field)
    cell_seconds = sum(rep.get("pool", {}).get("cell_seconds", []))
    layers["runtime.pool.overhead_s"] = (
        layers["runtime.pool.execute.busy_s"]
        - cell_seconds / (workload.sweep_workers or 1)
        if workload.is_sweep else 0.0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "telemetry", "wrapped"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the driver just before exec")
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--scale-mult", type=float, default=1.0)
    parser.add_argument("--device-capacity-gib", type=float)
    args = parser.parse_args(argv)

    from repro import telemetry

    workload = WORKLOADS[args.workload]
    run_args = dict(scale_mult=args.scale_mult,
                    device_capacity_gib=args.device_capacity_gib)
    tracer = Tracer(spill_dir=args.tmp) if args.mode == "wrapped" else None

    # ---- set-up: inputs + one discarded warm-up pass -------------------
    if tracer:
        tracer.install()
    if args.mode == "telemetry":
        telemetry.configure()
    try:
        inputs = prepare(workload, args.seed, args.scale_mult)
        warmup = run_once(workload, inputs, tracer=tracer, **run_args)
        setup_s = time.monotonic() - args.spawned_at
        setup_layers: Dict[str, float] = {}
        if args.mode == "telemetry":
            counters = telemetry.get_metrics().counter_values()
            setup_layers = {metric: counters.get(counter, 0)
                            for metric, counter in COLD_COUNTERS.items()}
    finally:
        if args.mode == "telemetry":
            telemetry.shutdown()
        if tracer:
            tracer.uninstall()
    phases = {}
    if tracer:
        tracer.adopt_spills()
        totals = aggregate(tracer.spans)
        setup_layers = {f"{name}.{field}": totals.get(name, {}).get(field, 0)
                        for name in COLD_SPAN_METRICS
                        for field in ("busy_s", "calls")}
        phases["setup"] = list(tracer.spans)

    # ---- measurement ----------------------------------------------------
    reps, traced = [], []
    started = time.perf_counter()
    while True:
        # Stop where one more repetition would overshoot the budget by more
        # than it undershoots now, so runs centre on --seconds.
        elapsed = time.perf_counter() - started
        if reps and elapsed + 0.5 * elapsed / len(reps) > args.seconds:
            break
        gc.collect()
        rep = run_once(workload, inputs, **run_args)
        rep["layers"] = rep_layers(workload, rep)
        reps.append(rep)
        if args.mode == "timed":
            continue
        gc.collect()
        if args.mode == "telemetry":
            telemetry.configure()
            try:
                rep = run_once(workload, inputs, **run_args)
                counters = telemetry.get_metrics().counter_values()
                ledger = telemetry.get_ledger().summary()
            finally:
                events = telemetry.shutdown()
            rep["layers"] = telemetry_layers(counters, ledger, events)
        else:
            tracer.reset()
            tracer.install()
            try:
                rep = run_once(workload, inputs, tracer=tracer, **run_args)
            finally:
                tracer.uninstall()
            tracer.adopt_spills()
            rep["layers"] = span_layers(workload, tracer, rep)
            phases["repetition"] = list(tracer.spans)
        traced.append(rep)

    if tracer and args.trace_out:
        write_trace(args.trace_out, workload.name, args.seed, phases)
    rss = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "mode": args.mode, "setup_s": setup_s, "rss_peak_bytes": rss * 1024,
        "warmup": warmup, "reps": reps, "traced": traced,
        "setup_layers": setup_layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
