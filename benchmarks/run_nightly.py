#!/usr/bin/env python
"""Nightly driver: slow suite, every bench gate, the perf harness.

Runs the full second-tier battery back-to-back in one process tree so the
scheduled ``nightly`` workflow (and anyone locally) needs exactly one
entry point::

    python benchmarks/run_nightly.py --out-dir /tmp/nightly

Steps, in order:

1. the slow-marker integration suite (``pytest tests -m slow``) —
   skippable with ``--skip-slow`` for local iteration;
2. the paper step, ``benchmarks/reach.py``, the one place the nightly
   runs the bench gates: the 14 paper benches at their default epochs
   (each asserts its artifact's finding), the full-scale Table 5 gate,
   every ``bench_*_smoke.py`` gate (discovered by glob, so new gates are
   picked up without touching either driver) and the stream-equivalence
   gate (``bench_stream_equivalence.py``), each under a profiler that
   follows every process they start. A failing gate fails the step. It
   writes ``reach.json`` (every ``src/repro`` function none of them
   ran, as ``file:line:qualname``) next to ``nightly_report.json``;
3. the perf harness: ``benchmarks/perf/run.py --trace 0`` and
   ``--trace 1`` (``--seconds 3``) run every ``BENCHMARK.json`` workload
   with telemetry off and on, and fail when an output check fails. This
   is not ``--check-repeat``: on a 2-vCPU runner two back-to-back runs
   of one commit moved ``setup_s`` by up to 33 %, past its 25 % bound, so
   a same-commit timing gate would fail on noise. Timings are gated per
   change, against the parent, by the benchmark pipeline;
4. a pinned 4-worker efficiency sweep through the real CLI, which must
   exit 0 and leave a run record (``nightly_sweep.run.json``) that
   parses. Its record, rows and trace land in the output dir and are
   uploaded with that night's report; timings are compared across
   commits by the perf harness, not across nights here.

Every step's exit code and duration, and the sweep's record path and
config fingerprint, land in ``nightly_report.json`` inside the output
dir; the driver exits non-zero if any step failed.
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
DEFAULT_OUT = BENCH_DIR / "results" / "nightly"

#: The nightly sweep: a pooled grid through the CLI end to end (pool,
#: shared term store, shard fold, run record), small enough to
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
        "--out-dir", default=str(DEFAULT_OUT), metavar="DIR",
        help="directory for the nightly sweep's run record, rows and "
             "trace, and the nightly report (default: %(default)s)")
    parser.add_argument(
        "--epochs", type=int, default=3,
        help="epochs for the nightly sweep (default: %(default)s)")
    parser.add_argument(
        "--skip-slow", action="store_true",
        help="skip the slow-marker suite (local iteration)")
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    python = sys.executable
    results: list = []

    if args.skip_slow:
        results.append({"step": "slow-suite", "exit_code": None,
                        "seconds": 0.0, "skipped": "--skip-slow"})
    else:
        _run("slow-suite",
             [python, "-m", "pytest", "tests", "-q", "-m", "slow"], results)

    _run("paper", [python, str(BENCH_DIR / "reach.py")],
         results, cwd=out_dir)

    for trace in ("0", "1"):
        _run(f"perf-trace-{trace}",
             [python, str(BENCH_DIR / "perf" / "run.py"), "--trace", trace,
              "--seconds", "3"], results)

    _run(
        "nightly-sweep",
        [python, "-m", "repro.bench", *NIGHTLY_SWEEP,
         "--epochs", str(args.epochs),
         "--output", str(out_dir / "nightly_sweep.json"),
         "--trace", str(out_dir / "nightly_sweep.jsonl")],
         results)
    record_path = out_dir / "nightly_sweep.run.json"
    report = {"out_dir": str(out_dir), "record": str(record_path),
              "config_fingerprint": None, "steps": results}
    try:
        record = json.loads(record_path.read_text())
        report["config_fingerprint"] = \
            record["measured"]["config_fingerprint"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        # A sweep without a readable record failed, whatever it exited.
        results[-1]["exit_code"] = results[-1]["exit_code"] or 1
        results[-1]["record_error"] = f"{type(error).__name__}: {error}"
    (out_dir / "nightly_report.json").write_text(
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
