#!/usr/bin/env python
"""Nightly driver: slow suite, every bench smoke gate, the perf harness.

Runs the full second-tier battery back-to-back in one process tree so the
scheduled ``nightly`` workflow (and anyone locally) needs exactly one
entry point::

    python benchmarks/run_nightly.py --registry-dir /tmp/nightly

Steps, in order:

1. the slow-marker integration suite (``pytest tests -m slow``) —
   skippable with ``--skip-slow`` for local iteration;
2. every ``benchmarks/bench_*_smoke.py`` CI gate, discovered by glob so
   new gates are picked up without touching this driver;
3. the paper step: the 14 paper benches (every ``bench_fig*.py`` and
   ``bench_table*.py`` but the full-scale Table 5 gate, which runs on
   its own) at their default epochs, each asserting its artifact's
   finding, and the stream-equivalence gate
   (``bench_stream_equivalence.py``), run once, through
   ``benchmarks/reach.py --paper``: the same
   run writes ``reach.json`` (the ``src/repro`` modules the benches
   execute) next to ``nightly_report.json``;
4. the perf harness: ``benchmarks/perf/run.py --trace 0`` and
   ``--trace 1`` (``--seconds 3``) run every ``BENCHMARK.json`` workload
   with telemetry off and on, and fail when an output check fails. This
   is not ``--check-repeat``: on a 2-vCPU runner two back-to-back runs
   of one commit moved ``setup_s`` by up to 33 %, past its 25 % bound, so
   a same-commit timing gate would fail on noise. Timings are gated per
   change, against the parent, by the benchmark pipeline;
5. a pinned 4-worker efficiency sweep through the real CLI, which must
   exit 0. Its registry record, rows and trace land in the registry dir
   and are uploaded with that night's report; timings are compared
   across commits by the perf harness, not across nights here.

Every step's exit code and duration land in ``nightly_report.json``
inside the registry dir; the driver exits non-zero if any step failed.
All child processes run with ``src`` prepended to ``PYTHONPATH``, so no
environment setup is needed beyond a working interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
DEFAULT_REGISTRY = BENCH_DIR / "results" / "nightly_registry"

#: The nightly sweep: a pooled grid through the CLI end to end (pool,
#: shared term store, shard fold, registry record), small enough to
#: finish in minutes on a CI runner.
NIGHTLY_SWEEP = [
    "efficiency", "--datasets", "cora", "citeseer",
    "--filters", "ppr", "hk", "monomial", "--schemes", "mini_batch",
    "--workers", "4",
]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not extra else f"{src}{os.pathsep}{extra}"
    return env


def _record_count(registry_dir: Path) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.telemetry.registry import RunRegistry
        return len(RunRegistry(registry_dir).load())
    except Exception:
        return 0
    finally:
        sys.path.pop(0)


def _run(name: str, argv: list, results: list, cwd: Path = REPO_ROOT) -> int:
    print(f"== nightly step: {name}\n   $ {' '.join(argv)}", flush=True)
    start = time.monotonic()
    code = subprocess.call(argv, cwd=cwd, env=_child_env())
    elapsed = round(time.monotonic() - start, 2)
    print(f"== nightly step: {name} -> exit {code} in {elapsed}s", flush=True)
    results.append({"step": name, "exit_code": code, "seconds": elapsed})
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the nightly battery: slow suite + bench gates + "
                    "perf harness + recorded sweep.")
    parser.add_argument(
        "--registry-dir", default=str(DEFAULT_REGISTRY), metavar="DIR",
        help="directory for the nightly sweep's registry record, rows "
             "and trace, and the nightly report (default: %(default)s)")
    parser.add_argument(
        "--epochs", type=int, default=3,
        help="epochs for the nightly sweep (default: %(default)s)")
    parser.add_argument(
        "--skip-slow", action="store_true",
        help="skip the slow-marker suite (local iteration)")
    args = parser.parse_args(argv)

    registry_dir = Path(args.registry_dir).resolve()
    registry_dir.mkdir(parents=True, exist_ok=True)
    python = sys.executable
    results: list = []

    if args.skip_slow:
        results.append({"step": "slow-suite", "exit_code": None,
                        "seconds": 0.0, "skipped": "--skip-slow"})
    else:
        _run("slow-suite",
             [python, "-m", "pytest", "tests", "-q", "-m", "slow"], results)

    gates = sorted(BENCH_DIR.glob("bench_*_smoke.py"))
    if not gates:
        print("== nightly: no bench_*_smoke.py gates found", flush=True)
        results.append({"step": "bench-gates", "exit_code": 1,
                        "seconds": 0.0})
    for gate in gates:
        name = gate.stem.removeprefix("bench_").removesuffix("_smoke")
        _run(f"bench-{name}",
             [python, "-m", "pytest", str(gate), "-x", "-q"], results)

    # Full-scale Table 5 gate (not a *_smoke, so chained explicitly):
    # chameleon at scale=1.0 through the blocked tier, under its pinned
    # memory ceiling — the nightly proof that the planner spills at full
    # size and that every cell of the slice stays measured, not
    # extrapolated.
    _run("bench-table5-fullscale",
         [python, "-m", "pytest",
          str(BENCH_DIR / "bench_table5_fullscale.py"), "-x", "-q"],
         results)

    _run("paper", [python, str(BENCH_DIR / "reach.py"), "--paper"],
         results, cwd=registry_dir)

    for trace in ("0", "1"):
        _run(f"perf-trace-{trace}",
             [python, str(BENCH_DIR / "perf" / "run.py"), "--trace", trace,
              "--seconds", "3"], results)

    before = _record_count(registry_dir)
    _run(
        "nightly-sweep",
        [python, "-m", "repro.bench", *NIGHTLY_SWEEP,
         "--epochs", str(args.epochs),
         "--registry-dir", str(registry_dir),
         "--output", str(registry_dir / "nightly_sweep.json"),
         "--trace", str(registry_dir / "nightly_sweep.jsonl")],
         results)
    after = _record_count(registry_dir)

    report = {"registry_dir": str(registry_dir),
              "records_before": before, "records_after": after,
              "steps": results}
    (registry_dir / "nightly_report.json").write_text(
        json.dumps(report, indent=2))

    print("\n== nightly summary", flush=True)
    for entry in results:
        status = ("SKIP" if entry.get("skipped")
                  else "ok" if entry["exit_code"] == 0 else "FAIL")
        print(f"   {entry['step']:<20} {status:<5} {entry['seconds']}s",
              flush=True)
    failed = [e["step"] for e in results
              if e["exit_code"] not in (0, None)]
    if failed:
        print(f"== nightly FAILED: {', '.join(failed)}", flush=True)
        return 1
    print("== nightly passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
