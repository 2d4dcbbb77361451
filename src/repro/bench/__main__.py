"""Command-line entry for the benchmark harness.

Runs any paper-artifact experiment by name and prints its table::

    python -m repro.bench --list
    python -m repro.bench taxonomy
    python -m repro.bench effectiveness --datasets cora roman --epochs 60
    python -m repro.bench efficiency --filters ppr chebyshev --schemes mini_batch
    python -m repro.bench regression --epochs 200

Observability: runs collect telemetry (spans, op counters, per-epoch
metrics) by default. ``--trace PATH`` streams the events to a JSONL file,
writes a run manifest next to it, and appends a trace report to the
output; ``--no-telemetry`` disables collection entirely (the zero-overhead
mode used for timing-sensitive comparisons). The memory observatory
(:mod:`repro.telemetry.memory`) runs whenever telemetry does: an
allocation ledger accounts every tensor allocation against the open span
path, and its summary — accounted peak, attribution, coverage vs
measured RSS — lands in the trace report and the registry record.
Every telemetry-enabled run is also indexed in the append-only run registry
(:mod:`repro.telemetry.registry`; ``--no-registry`` skips it,
``--registry-dir`` relocates it), which is what powers run history::

    python -m repro.bench compare --registry <config-fingerprint>
    python -m repro.bench compare --registry efficiency --history 10
    python -m repro.bench compare baseline.json candidate.json

The first form resolves the two most recent runs of a configuration from
the registry — no file paths — and diffs their stage timings, counters,
and summaries; ``--history N`` switches to a trend report (min/max/last +
sparkline per stage/summary metric over the fingerprint's last N runs).
The file form prints a ``REGRESSION`` line per metric that worsened
beyond its tolerance. Both are reports: a worse number never changes the
exit code. The regression gate is the perf harness
(``benchmarks/perf/run.py``).

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
shards are folded into the parent run, so ``--trace`` and the registry
record one coherent run annotated with the worker count::

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
and the registry record (schema v4) carries the store's hit/miss
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
import math
import sys
from pathlib import Path
from typing import Dict

from .. import telemetry
from ..errors import ReproError
from ..runtime import pool as runtime_pool
from ..runtime.context import GRID_SWEEPS, RunConfig
from ..runtime.pool import PoolConfig
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
                        help="dataset registry names")
    parser.add_argument("--filters", nargs="+", default=None,
                        help="filter registry names")
    parser.add_argument("--schemes", nargs="+", default=None,
                        choices=["full_batch", "mini_batch", "graph_partition"])
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--seeds", nargs="+", type=int, default=None)
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale override (validated against the "
                             "synthesizer's supported range at parse time)")
    parser.add_argument("--blocked", action="store_true",
                        help="run propagation through the out-of-core "
                             "blocked tier: row-tiled CSR spmm sized to the "
                             "RAM budget, and planner terms that spill to "
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
                        help="save rows as JSON to this path")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="stream telemetry events to this JSONL file and "
                             "write a run manifest next to it")
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
    shared_group = parser.add_mutually_exclusive_group()
    shared_group.add_argument(
        "--shared-terms", action="store_true",
        help="require the cross-process shared term store (a directory "
             "of content-addressed files under /dev/shm): pool workers "
             "memory-map planner-served basis chains (and the "
             "spmm-transpose/normalization CSRs) published by their "
             "siblings instead of recomputing them (grid sweeps with "
             "--workers > 1; on by default there — this flag makes a "
             "silently unavailable store an error)")
    shared_group.add_argument(
        "--no-shared-terms", action="store_true",
        help="disable the shared term store; each pool worker recomputes "
             "its own chains (the pre-shm baseline for measuring the "
             "pooled ops.spmm.calls gap)")
    parser.add_argument("--registry-dir", type=str, default=None,
                        metavar="DIR",
                        help="run-registry directory (default: "
                             "$REPRO_REGISTRY_DIR or "
                             "benchmarks/results/registry)")
    parser.add_argument("--no-registry", action="store_true",
                        help="do not index this run in the run registry")
    return parser


def build_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two runs: saved result files, or the two most "
                    "recent registry runs of one config fingerprint.")
    parser.add_argument("paths", nargs="*", metavar="RESULT.json",
                        help="baseline and candidate result files "
                             "(omit both when using --registry)")
    parser.add_argument("--registry", type=str, default=None, metavar="SPEC",
                        help="resolve baseline/candidate from the run "
                             "registry by config fingerprint (prefix) or "
                             "experiment name")
    parser.add_argument("--registry-dir", type=str, default=None,
                        metavar="DIR",
                        help="run-registry directory (default: "
                             "$REPRO_REGISTRY_DIR or "
                             "benchmarks/results/registry)")
    parser.add_argument("--history", type=int, default=None, metavar="N",
                        help="registry mode: instead of diffing two runs, "
                             "render one sparkline per stage/headline "
                             "metric over the last N runs of the config")
    return parser


def compare_main(argv) -> int:
    """``python -m repro.bench compare ...`` — file or registry mode."""
    parser = build_compare_parser()
    args = parser.parse_args(argv)

    if args.history is not None and args.registry is None:
        parser.error("--history requires --registry SPEC")
    if args.registry is not None:
        if args.paths:
            parser.error("--registry takes no file paths")
        if args.history is not None:
            return _registry_history(args)
        return _compare_registry(args)
    if len(args.paths) != 2:
        parser.error("file mode needs exactly BASELINE and CANDIDATE paths "
                     "(or use --registry SPEC)")
    return _compare_files(args)


def _compare_files(args) -> int:
    from .compare import TOLERANCE, compare_files

    comparison = compare_files(args.paths[0], args.paths[1])
    print(render_table(comparison.summary_rows(),
                       title=f"compare: {args.paths[0]} -> {args.paths[1]} "
                             f"({comparison.matched} rows matched)"))
    regressions = comparison.regressions()
    for delta in regressions:
        print(f"REGRESSION {'/'.join(map(str, delta.key))} {delta.metric}: "
              f"{delta.baseline:g} -> {delta.candidate:g} "
              f"({delta.relative:+.1%})")
    if comparison.baseline_only:
        print(f"baseline-only rows: {len(comparison.baseline_only)}")
    if comparison.candidate_only:
        print(f"candidate-only rows: {len(comparison.candidate_only)}")
    if regressions:
        print(f"{len(regressions)} regression(s) beyond "
              f"{TOLERANCE:.0%} tolerance")
    return 0


def _registry_history(args) -> int:
    from ..errors import ReproError
    from .compare import registry_history

    try:
        latest, rows = registry_history(args.registry, count=args.history,
                                        registry_dir=args.registry_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not rows:
        print(f"config {latest.config_fingerprint}: no numeric stage or "
              "summary metrics recorded yet")
        return 0
    print(f"config {latest.config_fingerprint}  experiment "
          f"{latest.experiment}  latest run {latest.run_id} "
          f"(git {latest.git_sha or '?'})")
    print(render_table(
        rows, title=f"registry history: {args.registry} "
                    f"(last {args.history} runs, oldest -> newest)"))
    return 0


def _compare_registry(args) -> int:
    from ..errors import ReproError
    from ..telemetry.report import render_run_diff
    from ..telemetry.sinks import load_events
    from .compare import compare_registry

    try:
        baseline, candidate, rows = compare_registry(
            args.registry, registry_dir=args.registry_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"config {candidate.config_fingerprint}  "
          f"baseline run {baseline.run_id} "
          f"(git {baseline.git_sha or '?'})  ->  "
          f"candidate run {candidate.run_id} "
          f"(git {candidate.git_sha or '?'})")
    print(render_table(
        rows, title=f"registry diff: {args.registry} "
                    f"(2 most recent of {candidate.config_fingerprint})"))

    trace_paths = (baseline.trace_path, candidate.trace_path)
    if all(p and Path(p).exists() for p in trace_paths):
        print()
        print(render_run_diff(load_events(trace_paths[0]),
                              load_events(trace_paths[1])))
    return 0


def run_config(args: argparse.Namespace) -> RunConfig:
    """The run's execution settings, one :class:`RunConfig` field per
    execution flag (a :class:`~repro.errors.ReproError` for a pool value
    out of range)."""
    return RunConfig(
        plan=not args.no_plan, cache=not args.no_cache,
        shared_terms=("required" if args.shared_terms
                      else "off" if args.no_shared_terms else "default"),
        blocked=args.blocked, ram_budget_mib=args.ram_budget,
        spill_dir=args.spill_dir, resume=args.resume, fresh=args.fresh,
        artifact_dir=args.artifact_dir,
        telemetry=not args.no_telemetry, trace=args.trace,
        pool=PoolConfig(workers=args.workers, cell_timeout=args.cell_timeout,
                        max_retries=args.max_retries))


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list or not args.experiment:
        rows = [{"experiment": name, "reproduces": artifact}
                for name, (_, artifact, _) in EXPERIMENTS.items()]
        print(render_table(rows, title="available experiments"))
        return 0

    entry = EXPERIMENTS.get(args.experiment)
    if entry is None:
        parser.error(f"unknown experiment {args.experiment!r}; use --list")
    runner, artifact, takes_config = entry
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

    kwargs = {}
    if args.datasets:
        if args.experiment == "hardware":
            kwargs["dataset_name"] = args.datasets[0]
        else:
            kwargs["dataset_names"] = tuple(args.datasets)
    if args.filters:
        kwargs["filters"] = tuple(args.filters)
    if args.schemes and args.experiment == "efficiency":
        kwargs["schemes"] = tuple(args.schemes)
    if args.seeds and args.experiment in ("effectiveness", "stability",
                                          "scale-shift", "hops",
                                          "degree-bias", "normalization"):
        kwargs["seeds"] = tuple(args.seeds)
    if args.scale is not None and args.experiment in ("efficiency",
                                                      "effectiveness"):
        kwargs["scale_override"] = args.scale
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
    # fingerprint the registry stamps on the record afterwards (argv/
    # workers/plan/shared_terms live outside the fingerprint keys).
    run_manifest = None
    if cfg.telemetry:
        run_manifest = telemetry.build_manifest(
            config=kwargs.get("config"),
            seed=(args.seeds[0] if args.seeds else None),
            extra=cfg.manifest_extra(args.experiment, artifact, argv),
            workers=cfg.pool.workers)
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
                            "artifact": artifact},
                  manifest=run_manifest if run_manifest is not None else True)
        print(f"saved {len(rows)} rows to {args.output}")
    if args.trace and run_manifest is not None:
        manifest_path = telemetry.manifest_path_for(args.trace)
        telemetry.write_manifest(manifest_path, run_manifest)
        print(f"trace: {args.trace}  manifest: {manifest_path}")
        print(render_run_telemetry(events))
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
        blocked_info = run.tier.stats()
        print(f"blocked: budget={blocked_info['ram_budget_bytes']} "
              f"spmm={blocked_info['spmm_calls']} "
              f"tiles={blocked_info['tiles']} "
              f"spill_files={blocked_info['spill_files']} "
              f"spill_bytes={blocked_info['spill_bytes']} "
              f"loads={blocked_info['load_files']} "
              f"mmap_peak_bytes={blocked_info['mmap_peak_bytes']}")
    artifacts_info = None
    if run.sweep is not None:
        artifacts_info = dict(
            {"mode": "fresh" if cfg.fresh else "resume",
             "dir": str(run.sweep.store.root)},
            **run.sweep.store.stats())
        print(f"artifacts: {run.sweep.store.root}  "
              f"mode={artifacts_info['mode']}  "
              f"hit={artifacts_info['hit']} miss={artifacts_info['miss']} "
              f"stored={artifacts_info['stored']} "
              f"cells={artifacts_info['cells']}")
    if run_manifest is not None and not args.no_registry:
        from .io import summarize_rows

        pool_info = None
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
        record = telemetry.record_run(
            run_manifest, events=events, summary=summarize_rows(printable),
            trace_path=args.trace, result_path=args.output,
            registry_dir=args.registry_dir,
            workers=cfg.pool.workers, pool=pool_info,
            artifacts=artifacts_info)
        registry_path = telemetry.default_registry_dir(args.registry_dir)
        print(f"registry: {registry_path}  "
              f"config={record.config_fingerprint}  run={record.run_id}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
