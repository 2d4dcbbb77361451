"""Command-line entry for the benchmark harness.

Runs any paper-artifact experiment by name and prints its table::

    python -m repro.bench --list
    python -m repro.bench taxonomy
    python -m repro.bench effectiveness --datasets cora roman --epochs 60
    python -m repro.bench efficiency --filters ppr chebyshev --schemes mini_batch
    python -m repro.bench regression --epochs 200

Observability: runs collect telemetry (spans, op counters, per-epoch
metrics) by default. ``--trace PATH`` streams the events to a JSONL file
and appends a trace report to the output; ``--no-telemetry`` disables
collection entirely (the zero-overhead mode used for timing-sensitive
comparisons). The memory observatory (:mod:`repro.telemetry.memory`)
runs whenever telemetry does: an allocation ledger accounts every tensor
allocation against the open span path, and its summary — accounted peak,
attribution, coverage vs measured RSS — lands in the trace report and
the run record. A run with ``--output`` (or else ``--trace``) writes one
run record, ``<stem>.run.json`` beside that file
(:func:`repro.telemetry.write_run_record`): the run manifest and, with
telemetry, a ``measured`` block — config fingerprint, stage aggregates,
counters and the ``memory`` / ``pool`` / ``artifacts`` blocks, which the
smoke gates read back. Timings are compared across commits by the perf
harness (``benchmarks/perf/run.py``), not by records.

Caching: the sparse-compute cache layer (:mod:`repro.runtime.cache`) is on
by default — spmm-backward transposes, per-graph normalized operators, and
dense eigenpairs are memoized, with traffic on the ``cache.spmm_t.*`` /
``cache.norm_adj.*`` / ``cache.eig.*`` counters. ``--no-cache`` bypasses
every cache (the baseline mode used to measure the cache's own FLOP/byte
delta with ``ops.spmm.*`` / ``ops.eig.*``). The basis planner
(:mod:`repro.runtime.plan`) additionally dedups polynomial basis chains
*across* the filters of a sweep (``plan.terms.*`` / ``plan.spmm_avoided``
counters) without changing a single result bit; ``--no-plan`` bypasses
just the planner, and ``--no-cache`` implies it.

Parallelism: the grid sweeps (``efficiency``, ``effectiveness``, ``hops``,
``scale-shift``)
accept ``--workers N`` to fan their dataset×filter cells out to a process
pool (:mod:`repro.runtime.pool`) with per-cell ``--cell-timeout`` and
``--max-retries`` crash isolation. Results are bit-identical to a serial
run (deterministic seeds, grid-order reassembly) and worker telemetry
shards are folded into the parent run, so ``--trace`` and the run
record hold one coherent run annotated with the worker count::

    python -m repro.bench efficiency --workers 4 --cell-timeout 600

Resumable sweeps (grid sweeps): ``--resume`` consults the
content-addressed cell artifact store (:mod:`repro.runtime.artifacts`)
before launching any worker — cells whose address (config fingerprint,
grid coordinates, derived seed, code rev) matches a stored result are
served from disk, only the remainder executes, and every successful cell
persists back; ``--fresh`` purges the store first and repopulates it;
``--artifact-dir`` relocates it (default ``$REPRO_ARTIFACT_DIR`` or
``benchmarks/results/artifacts``). A resumed run's canonical payload is
byte-identical to an uninterrupted one (the ``bench-resume`` CI gate),
and the run record's ``artifacts`` block carries the store's hit/miss
accounting outside the config fingerprint::

    python -m repro.bench efficiency --workers 4 --resume

Run context: the execution flags above (``--no-plan`` … ``--workers``)
are the fields of one frozen :class:`repro.runtime.context.RunConfig`.
:func:`main` builds it from argv and validates the combination once — a
rejected one is a usage error naming the flag (README's "Legal option
combinations" lists the rules) — then runs the experiment inside
``RunConfig.open(manifest)``, which builds the artifact sweep, shared
term store and blocked tier the flags ask for, makes them the current
run context (what the pool ships to its workers) and tears them down
afterwards. The manifest's execution fields come from the same
config.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import Any, Dict

from .. import telemetry
from ..datasets import DATASET_NAMES
from ..errors import ReproError
from ..filters import FILTER_NAMES
from ..runtime import pool as runtime_pool
from ..runtime.context import GRID_SWEEPS, RunConfig
from ..runtime.pool import PoolConfig
from ..telemetry.report import final_metrics
from ..training.loop import TrainConfig
from . import experiments
from .report import render_run_telemetry, render_table

#: experiment name -> (runner, paper artifact, accepts-config)
EXPERIMENTS: Dict[str, tuple] = {
    "taxonomy": (experiments.taxonomy_experiment, "Table 1", False),
    "efficiency": (experiments.efficiency_experiment, "Figure 2 / Tables 9+11", True),
    "effectiveness": (experiments.effectiveness_experiment, "Table 5", True),
    "scale-shift": (experiments.scale_shift_experiment, "Figure 3", True),
    "stability": (experiments.stability_experiment, "Figure 4", True),
    "hardware": (experiments.hardware_experiment, "Figure 5", True),
    "baselines": (experiments.baseline_experiment, "Table 6", True),
    "linkpred": (experiments.linkpred_experiment, "Figure 6", True),
    "regression": (experiments.regression_experiment, "Table 7", False),
    "hops": (experiments.hop_sweep_experiment, "Figure 7", True),
    "tsne": (experiments.tsne_experiment, "Figure 8", True),
    "degree-bias": (experiments.degree_bias_experiment, "Figure 9", True),
    "normalization": (experiments.normalization_experiment, "Figure 10", True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate one of the paper's tables/figures.")
    parser.add_argument("experiment", nargs="?",
                        help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    parser.add_argument("--datasets", nargs="+", default=None,
                        choices=DATASET_NAMES, metavar="NAME",
                        help="dataset registry names")
    parser.add_argument("--filters", nargs="+", default=None,
                        choices=FILTER_NAMES, metavar="NAME",
                        help="filter registry names")
    parser.add_argument("--schemes", nargs="+", default=None,
                        choices=["full_batch", "mini_batch", "graph_partition"])
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale override (validated against the "
                             "synthesizer's supported range at parse time)")
    parser.add_argument("--blocked", action="store_true",
                        help="bound the planner's resident terms to half "
                             "the RAM budget: terms beyond it spill to "
                             "mmap-backed files instead of being recomputed "
                             "(bit-identical to the in-core path; serial "
                             "runs only)")
    parser.add_argument("--ram-budget", type=float, default=None,
                        metavar="MIB",
                        help="RAM budget of the blocked tier in MiB "
                             "(default: current RSS, floored at 64 MiB); "
                             "requires --blocked")
    parser.add_argument("--spill-dir", type=str, default=None, metavar="DIR",
                        help="directory for spilled term matrices (default: "
                             "a private temp dir removed after the run); "
                             "requires --blocked")
    parser.add_argument("--capacity-gib", type=float, default=None,
                        help="simulated device capacity (GiB, > 0; "
                             "efficiency and baselines only)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="process-pool size for the grid sweeps "
                             f"({', '.join(GRID_SWEEPS)}); 1 = "
                             "serial in-process execution (default)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; a timed-out "
                             "worker is terminated and the cell retried "
                             "(pool mode only)")
    parser.add_argument("--max-retries", type=int, default=1, metavar="K",
                        help="extra attempts for a crashed/timed-out cell "
                             "before it is reported failed (default 1; "
                             "pool mode only)")
    parser.add_argument("--root-seed", type=int, default=None,
                        help="derive per-cell repeat seeds as "
                             "f(root_seed, dataset, filter, repeat) "
                             "(effectiveness only; default: literal "
                             "--seeds)")
    parser.add_argument("--output", type=str, default=None,
                        help="save rows as JSON to this path and the run "
                             "record as <stem>.run.json beside it")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="stream telemetry events to this JSONL file "
                             "(the run record goes beside it when there "
                             "is no --output)")
    resume_group = parser.add_mutually_exclusive_group()
    resume_group.add_argument(
        "--resume", action="store_true",
        help="serve grid cells already in the artifact store and execute "
             "only the remainder; successful cells persist back "
             "(grid sweeps with telemetry only)")
    resume_group.add_argument(
        "--fresh", action="store_true",
        help="purge the artifact store, run every cell live, and "
             "repopulate it (grid sweeps with telemetry only)")
    parser.add_argument("--artifact-dir", type=str, default=None,
                        metavar="DIR",
                        help="cell artifact-store directory (default: "
                             "$REPRO_ARTIFACT_DIR or "
                             "benchmarks/results/artifacts); requires "
                             "--resume or --fresh")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="disable span/metric collection entirely")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the sparse-compute cache layer "
                             "(spmm transpose + normalization + eig memos); "
                             "implies --no-plan")
    parser.add_argument("--no-plan", action="store_true",
                        help="bypass the basis-term propagation planner "
                             "(every filter streams its own recurrence; "
                             "the baseline mode for measuring "
                             "plan.spmm_avoided)")
    parser.add_argument(
        "--no-shared-terms", action="store_true",
        help="disable the cross-process shared term store (on by default "
             "for grid sweeps with --workers > 1, where pool workers "
             "memory-map basis chains published by their siblings); each "
             "pool worker recomputes its own chains")
    return parser


def run_config(args: argparse.Namespace) -> RunConfig:
    """The run's execution settings, one :class:`RunConfig` field per
    execution flag (a :class:`~repro.errors.ReproError` for a pool value
    out of range)."""
    return RunConfig(
        plan=not args.no_plan, cache=not args.no_cache,
        shared_terms=not args.no_shared_terms,
        blocked=args.blocked, ram_budget_mib=args.ram_budget,
        spill_dir=args.spill_dir, resume=args.resume, fresh=args.fresh,
        artifact_dir=args.artifact_dir,
        telemetry=not args.no_telemetry, trace=args.trace,
        pool=PoolConfig(workers=args.workers, cell_timeout=args.cell_timeout,
                        max_retries=args.max_retries))


def selection_kwargs(parser: argparse.ArgumentParser,
                     args: argparse.Namespace, runner) -> Dict[str, Any]:
    """The runner's arguments from the selection flags, or a usage error.

    A flag fills the runner parameter that takes it — all values for a
    sequence parameter (``seeds``), exactly one for a single-value one
    (``seed``) — and a flag the runner has no parameter for is rejected,
    never dropped. Seeds must be ≥ 0.
    """
    if args.seeds and min(args.seeds) < 0:
        parser.error(f"--seeds must be >= 0, got {min(args.seeds)}")
    params = inspect.signature(runner).parameters
    kwargs: Dict[str, Any] = {}
    for flag, many, one in (("datasets", "dataset_names", "dataset_name"),
                            ("filters", "filters", None),
                            ("schemes", "schemes", "scheme"),
                            ("seeds", "seeds", "seed")):
        values = getattr(args, flag)
        if values is None:
            continue
        if many in params:
            kwargs[many] = tuple(values)
        elif one in params and len(values) == 1:
            kwargs[one] = values[0]
        elif one in params:
            parser.error(f"{args.experiment} takes one --{flag} value, "
                         f"got {len(values)}")
        else:
            parser.error(f"--{flag} does not apply to {args.experiment}")
    if args.scale is not None:
        if "scale_override" not in params:
            parser.error("--scale applies to efficiency and effectiveness "
                         "only")
        kwargs["scale_override"] = args.scale
    return kwargs


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    # Name an unknown experiment before its trailing arguments, so a
    # retired subcommand reads as what it is.
    args, extra = parser.parse_known_args(argv)
    if args.experiment is not None and args.experiment not in EXPERIMENTS:
        parser.error(f"unknown experiment {args.experiment!r}; use --list")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")

    if args.list or not args.experiment:
        rows = [{"experiment": name, "reproduces": artifact}
                for name, (_, artifact, _) in EXPERIMENTS.items()]
        print(render_table(rows, title="available experiments"))
        return 0

    runner, artifact, takes_config = EXPERIMENTS[args.experiment]
    if args.scale is not None:
        from ..datasets.synthesis import validate_scale
        from ..errors import DatasetError

        try:
            validate_scale(args.scale)
        except DatasetError as error:
            parser.error(str(error))
    if args.root_seed is not None and args.experiment != "effectiveness":
        parser.error("--root-seed applies to effectiveness only")
    if args.capacity_gib is not None:
        if args.experiment not in ("efficiency", "baselines"):
            parser.error("--capacity-gib applies to efficiency and "
                         "baselines only")
        if not (math.isfinite(args.capacity_gib) and args.capacity_gib > 0):
            parser.error(f"--capacity-gib must be a finite number > 0, "
                         f"got {args.capacity_gib:g}")
    try:
        cfg = run_config(args).validate(args.experiment, epochs=args.epochs)
    except ReproError as error:
        parser.error(str(error))

    kwargs = selection_kwargs(parser, args, runner)
    if args.capacity_gib is not None:
        kwargs["device_capacity_gib"] = args.capacity_gib
    if takes_config and args.epochs is not None:
        kwargs["config"] = TrainConfig(epochs=args.epochs,
                                       patience=max(args.epochs // 2, 1))
    if not takes_config and args.epochs is not None:
        kwargs["epochs"] = args.epochs
    grid = args.experiment in GRID_SWEEPS
    if grid:
        kwargs["pool"] = cfg.pool
    if args.root_seed is not None:
        kwargs["root_seed"] = args.root_seed

    # The manifest is deterministic and fully known pre-run, which is
    # what lets the artifact store address cells with the *same* config
    # fingerprint the run record carries afterwards (argv/workers/plan/
    # shared_terms live outside the fingerprint keys).
    run_manifest = None
    if cfg.telemetry or args.output:
        run_manifest = telemetry.build_manifest(
            config=kwargs.get("config"),
            seed=(args.seeds[0] if args.seeds else None),
            extra=cfg.manifest_extra(args.experiment, artifact, argv),
            workers=cfg.pool.workers)
    if cfg.telemetry:
        telemetry.configure(trace_path=cfg.trace)
    try:
        with cfg.open(run_manifest) as run, \
                telemetry.span("experiment", experiment=args.experiment,
                               artifact=artifact):
            rows = runner(**kwargs)
    finally:
        events = telemetry.shutdown() if cfg.telemetry else []

    printable = [{k: v for k, v in row.items() if k != "embedding"}
                 for row in rows]
    print(render_table(printable, title=f"{args.experiment} ({artifact})"))

    if args.output:
        from .io import save_rows

        save_rows(rows, args.output,
                  metadata={"experiment": args.experiment,
                            "artifact": artifact})
        print(f"saved {len(rows)} rows to {args.output}")
    if args.trace:
        print(render_run_telemetry(events))
    # The tier's and the store's traffic are the run's counters.
    metrics = final_metrics(events)
    counters = metrics.get("counters") or {}
    shm_info = None
    if run.store is not None:
        shm_info = run.store.stats()
        print(f"shared-terms: chains={shm_info.get('chains', 0)} "
              f"blobs={shm_info.get('blobs', 0)} "
              f"hits={shm_info.get('hits', 0)} "
              f"publishes={shm_info.get('publishes', 0)} "
              f"peak_bytes={shm_info.get('peak_bytes', 0)} "
              f"unlinked={shm_info.get('segments_unlinked', 0)}")
    if run.tier is not None:
        line = f"blocked: budget={run.tier.ram_budget_bytes}"
        if cfg.telemetry:
            for label, name in (("spill_files", "plan.terms.spill"),
                                ("spill_bytes", "blocked.spill_bytes"),
                                ("loads", "plan.terms.spill_load"),
                                ("load_bytes", "blocked.load_bytes")):
                line += f" {label}={int(counters.get(name, 0))}"
        print(line)
    artifacts_info = {}
    if run.sweep is not None:
        artifacts_info = {"mode": "fresh" if cfg.fresh else "resume",
                          "dir": str(run.sweep.store.root),
                          "cells": len(run.sweep.store)}
        for key, name in (("hit", "hit"), ("miss", "miss"),
                          ("stored", "store"), ("torn", "torn")):
            artifacts_info[key] = int(counters.get(f"artifacts.{name}", 0))
        print(f"artifacts: {run.sweep.store.root}  "
              f"mode={artifacts_info['mode']}  "
              f"hit={artifacts_info['hit']} miss={artifacts_info['miss']} "
              f"stored={artifacts_info['stored']} "
              f"cells={artifacts_info['cells']}")
    if args.output or args.trace:
        fingerprint = telemetry.config_fingerprint(run_manifest)
        measured = None
        if cfg.telemetry:
            pool_info = {}
            if grid:
                pool_info = {"workers": cfg.pool.workers,
                             "cell_timeout": cfg.pool.cell_timeout,
                             "max_retries": cfg.pool.max_retries,
                             "shared_terms": cfg.shares_terms}
                sweep_stats = runtime_pool.last_run_stats()
                if sweep_stats is not None:
                    pool_info["stats"] = sweep_stats
                if shm_info is not None:
                    pool_info["shm"] = shm_info
            measured = {"config_fingerprint": fingerprint,
                        "workers": cfg.pool.workers, "pool": pool_info,
                        "artifacts": artifacts_info,
                        "memory": telemetry.memory_block(events, metrics),
                        "metrics": metrics,
                        "stages": telemetry.aggregate_spans(events),
                        "trace_path": args.trace,
                        "result_path": args.output}
        path = telemetry.write_run_record(
            telemetry.record_path_for(args.output or args.trace),
            run_manifest, measured)
        print(f"record: {path}  config={fingerprint}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
