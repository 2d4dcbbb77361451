#!/usr/bin/env python
"""Append one calibrated benchmark record to ``BENCH_trajectory.json``.

For each workload it runs ``benchmarks/perf/run.py --workload W --seed S
--trace 0`` of a checkout as a subprocess and keeps the six end-to-end
medians from the JSON object ``run.py`` prints as its last stdout line.
Before the first workload and after the last it times a host
calibration in this process, so a record carries what the host could do
while it was taken:

- ``calib_s`` — the sum of three kernels, each its fastest of
  :data:`CALIB_ROUNDS` runs: a fixed scipy CSR spmm, a float32 matmul
  (one BLAS thread, as the harness pins it) and a loop that page-faults
  fresh memory;
- ``calib_par`` — the same spmm through :func:`repro.runtime.blocked.
  blocked_spmm` on two threads over one thread; below 1 when a second
  CPU was free to take half the tiles.

Both are the mean of the two calibrations, and ``calib_drift`` is the
second ``calib_s`` over the first. A record is one line of the file's
JSON list: ``{git_sha, dirty, diff_sha, pr, seed, seconds, host: {calib_s,
calib_par, calib_drift, nproc, simd_dispatch, mem_total}, workloads: {W:
{metric: median}}}``. Earlier lines are never rewritten. A workload whose
run fails, or whose output check fails, appends nothing. Usage::

    python benchmarks/trajectory.py [--checkout DIR] [--pr N] [--seed S]
        [--seconds T] [--workload W ...] [--out FILE]

``--checkout`` (default: this repo) names the tree whose ``run.py`` runs
and whose ``git rev-parse HEAD`` is recorded; ``dirty`` says whether its
tracked files differ from that commit, and ``diff_sha`` is the sha256 of
its ``git diff HEAD`` (``null`` when clean), so a dirty record names the
tree it measured. ``--out`` defaults to
``BENCH_trajectory.json`` at this repo's root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT = REPO_ROOT / "BENCH_trajectory.json"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fb_ewise", "fb_spmm", "fb_edge", "mb_decoupled",
             "sweep_serial", "sweep_pool2")
#: Rounds of a calibration; each kernel runs once per round and reports
#: its fastest round.
CALIB_ROUNDS = 5


def calibrate(rounds: int = CALIB_ROUNDS) -> Dict[str, float]:
    """``calib_s`` and ``calib_par`` of this host, now. The kernels take
    turns, so a slow spell of the host hits all of them alike."""
    import numpy as np
    import scipy.sparse as sp

    from repro.runtime import blocked

    rng = np.random.default_rng(0)
    n, degree = 20000, 20
    csr = sp.csr_matrix(
        (rng.standard_normal(n * degree, dtype=np.float32),
         rng.integers(0, n, n * degree, dtype=np.int32),
         np.arange(0, n * degree + 1, degree, dtype=np.int32)), shape=(n, n))
    signal = rng.standard_normal((n, 64), dtype=np.float32)
    left = rng.standard_normal((2048, 256), dtype=np.float32)
    right = rng.standard_normal((256, 256), dtype=np.float32)

    def faults() -> None:
        for _ in range(4):
            np.ones(8 << 20)  # 64 MiB: freshly mapped, every page faults

    kernels: Dict[str, Callable[[], object]] = {
        "spmm": lambda: blocked.blocked_spmm(csr, signal, 1),
        "spmm_2": lambda: blocked.blocked_spmm(csr, signal, 2),
        "matmul": lambda: left @ right,
        "faults": faults,
    }
    best = dict.fromkeys(kernels, float("inf"))
    for _ in range(rounds):
        for name, kernel in kernels.items():
            started = time.perf_counter()
            kernel()
            best[name] = min(best[name], time.perf_counter() - started)
    return {"calib_s": best["spmm"] + best["matmul"] + best["faults"],
            "calib_par": best["spmm_2"] / best["spmm"]}


def run_workload(checkout: Path, workload: str, seed: int,
                 seconds: Optional[float]) -> Dict[str, float]:
    """The six end-to-end medians of one ``run.py --trace 0`` run."""
    command = [sys.executable, str(checkout / "benchmarks" / "perf" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} cells failed")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def _diff_sha(checkout: Path) -> Optional[str]:
    """sha256 of the checkout's ``git diff HEAD`` (tracked files, binary
    changes in full); ``None`` when the tree is its commit."""
    diff = subprocess.run(["git", "diff", "--binary", "--no-ext-diff",
                           "HEAD"], cwd=checkout, capture_output=True,
                          check=True).stdout
    return hashlib.sha256(diff).hexdigest() if diff else None


def measure(checkout: Path, workloads: Sequence[str], seed: int,
            seconds: Optional[float], pr: Optional[int]) -> Dict:
    """One record: calibrate, run every workload, calibrate again."""
    from repro.telemetry.manifest import git_sha, hardware_info

    before = calibrate()
    medians = {name: run_workload(checkout, name, seed, seconds)
               for name in workloads}
    after = calibrate()
    info = hardware_info()
    diff_sha = _diff_sha(checkout)
    return {
        "git_sha": git_sha(checkout), "dirty": diff_sha is not None,
        "diff_sha": diff_sha, "pr": pr,
        "seed": seed, "seconds": seconds,
        "host": {
            "calib_s": (before["calib_s"] + after["calib_s"]) / 2,
            "calib_par": (before["calib_par"] + after["calib_par"]) / 2,
            "calib_drift": after["calib_s"] / before["calib_s"],
            "nproc": len(os.sched_getaffinity(0)),
            "simd_dispatch": info["simd_dispatch"],
            "mem_total": info["total_ram_bytes"],
        },
        "workloads": medians,
    }


def append(path: Path, record: Dict) -> None:
    """Add ``record`` as the last line of the JSON list at ``path``."""
    records: List[Dict] = json.loads(path.read_text()) if path.exists() else []
    lines = [json.dumps(r, sort_keys=True) for r in records + [record]]
    scratch = path.with_name(path.name + ".tmp")
    scratch.write_text("[\n" + ",\n".join(lines) + "\n]\n")
    os.replace(scratch, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--checkout", type=Path, default=REPO_ROOT)
    parser.add_argument("--pr", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    # The calibration's matmul runs on one BLAS thread, as the harness
    # pins it; a pin acts only if set before numpy is first imported.
    for name in BLAS_PINS:
        os.environ[name] = "1"
    sys.path.insert(0, str(REPO_ROOT / "src"))
    record = measure(args.checkout.resolve(), args.workload or WORKLOADS,
                     args.seed, args.seconds, args.pr)
    append(args.out, record)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
