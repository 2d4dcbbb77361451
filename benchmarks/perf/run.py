"""Driver of the repo's performance benchmark.

    python3 benchmarks/perf/run.py --workload NAME --seed S --seconds T --trace 0|1

runs one workload and prints every metric by name with its unit, then — as
the last line of stdout — one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. ``--trace 0`` gives the end-to-end metrics
(measured with nothing attached), ``--trace 1`` the per-layer metrics
(telemetry pass T1 + outside-in wrapper pass T2). Exit code is non-zero
when an output check fails. ``BENCHMARK.json`` at the repo root names the
workloads, metrics, units and regression bounds; README.md explains them.

Load shape: closed loop, one client. Each measurement runs in fresh worker
subprocesses (``worker.py``), one after another, with BLAS/OpenMP pinned
to one thread so ``sweep_pool2``'s two pool workers are the only
parallelism. A trace-0 run starts three workers — three samples of
``setup_s``, and repetitions spread over three processes so one process's
allocator state cannot set the median.

Maintenance modes: ``--record`` (all workloads, both passes, writes
``results/baseline.json`` with the hardware stamp) and ``--check-repeat``
(both passes twice on the same seed; exits non-zero when a timing moves
past its bound or an exact metric moves at all).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, sys.path[0] is this directory, where trace.py would
# shadow the stdlib module of that name; import through the package instead.
if sys.path and Path(sys.path[0] or ".").resolve() == HERE:
    sys.path[0] = str(ROOT)

from benchmarks.perf.workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc allocator pins for the workers — noise control, like the BLAS pins.
#: The autodiff core allocates a fresh multi-MB array per op; with glibc's
#: defaults those are mmapped, faulted in and unmapped again, and on the
#: builder's VM that page-fault churn cost 25-120 % of a repetition and
#: differed by up to 30 % between identical processes. Keeping arrays up to
#: 32 MiB (the largest threshold glibc accepts) on a heap that is never
#: trimmed takes it out of the timings: repetitions are then within 4 %.
MALLOC_PINS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20),
               "MALLOC_TRIM_THRESHOLD_": str(2 << 30)}
WORKER_TIMEOUT_S = 150
TIMED_WORKERS = 3

#: Per-layer metrics that are pure functions of (code, seed): a
#: ``--check-repeat`` run requires them to repeat bit for bit.
#: Under a process pool only the op counts qualify: which worker wins a
#: shared-store claim, and so who hits and who publishes, is a race.
EXACT_SUFFIXES = (".calls", ".bytes", ".msg_bytes", ".hits", ".misses",
                  ".spmm_avoided", ".hit_ratio", ".retries", ".events",
                  ".alloc_events", ".publishes", ".segments_unlinked")
EXACT_END_TO_END = ("ram_bytes", "device_bytes")


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed check)."""


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ======================================================================
# worker processes
# ======================================================================
def worker_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    for name in BLAS_PINS:
        env[name] = "1"
    env.update(MALLOC_PINS)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + ([inherited] if inherited else []))
    env["TMPDIR"] = str(tmp)
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, tmp: Path,
          options: argparse.Namespace) -> Dict:
    """Run one worker to completion and return its record."""
    command = [sys.executable, "-m", "benchmarks.perf.worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", f"{seconds:.3f}", "--mode", mode,
               "--tmp", str(tmp), "--scale-mult", str(options.scale_mult)]
    if mode == "wrapped":
        command += ["--trace-out", str(RESULTS / f"{workload}.trace.json")]
    if options.device_capacity_gib is not None:
        command += ["--device-capacity-gib", str(options.device_capacity_gib)]
    command += ["--spawned-at", repr(time.monotonic())]
    # Own session, so a timeout can take the worker's pool children with it.
    with subprocess.Popen(command, cwd=ROOT, env=worker_env(tmp),
                          stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as worker:
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as error:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise BenchError(f"{workload}/{mode}: worker exceeded "
                             f"{WORKER_TIMEOUT_S}s") from error
    if worker.returncode != 0:
        raise BenchError(f"{workload}/{mode}: worker exited {worker.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# ======================================================================
# output checks
# ======================================================================
def signature(rep: Dict) -> Tuple:
    """What must be identical between same-seed repetitions."""
    return tuple((cell["cell"], cell.get("test_score"), cell["ram_bytes"],
                  cell["device_bytes"]) for cell in rep["cells"])


def check(records: List[Dict]) -> Tuple[int, int, List[str]]:
    """Count cells attempted / failed over every pass of every worker."""
    attempted = failed = 0
    problems: List[str] = []
    reference = None
    for record in records:
        for rep in [record["warmup"]] + record["reps"] + record["traced"]:
            cells = rep["cells"]
            attempted += len(cells)
            whole = list(rep.get("problems", ()))
            if reference is None:
                reference = signature(rep)
            elif signature(rep) != reference:
                whole.append("outputs differ from an earlier same-seed "
                             "repetition")
            if whole:
                failed += len(cells)
                problems += whole
                continue
            for cell in cells:
                if cell["problems"]:
                    failed += 1
                    problems += [f"{cell['cell']}: {p}"
                                 for p in cell["problems"]]
    return attempted, failed, problems


# ======================================================================
# metrics
# ======================================================================
def summarise(values: List[float]) -> Dict[str, float]:
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def end_to_end(records: List[Dict]) -> Dict[str, Dict]:
    reps = [rep for record in records for rep in record["reps"]]
    cells = reps[0]["cells"]
    return {
        "setup_s": summarise([r["setup_s"] for r in records]),
        "wall_s": summarise([rep["wall_s"] for rep in reps]),
        "train_s_per_epoch": summarise(
            [sum(c["train_s_per_epoch"] for c in rep["cells"]) for rep in reps]),
        "ram_bytes": summarise([max(c["ram_bytes"] for c in cells)]),
        "device_bytes": summarise([max(c["device_bytes"] for c in cells)]),
        "rss_peak_bytes": summarise([r["rss_peak_bytes"] for r in records]),
    }


def per_layer(records: List[Dict]) -> Dict[str, Dict]:
    """Median of each layer metric over the repetitions that report it,
    plus the set-up phase for the cold-path layers and the two ratios that
    need both passes."""
    samples: Dict[str, List[float]] = {}
    for record in records:
        for rep in record["reps"] + record["traced"]:
            for name, value in rep["layers"].items():
                samples.setdefault(name, []).append(value)
    layers = {name: summarise(values) for name, values in samples.items()}
    for record in records:
        for name, value in record["setup_layers"].items():
            for field in ("value", "min", "max"):
                layers[name][field] += value
        untraced = statistics.median(rep["wall_s"] for rep in record["reps"])
        traced = statistics.median(rep["wall_s"] for rep in record["traced"])
        prefix = "telemetry" if record["mode"] == "telemetry" else "trace"
        layers[f"{prefix}.overhead_ratio"] = {
            "value": traced / untraced, "samples": len(record["traced"])}
    # ops.spmm.flops counts forward products of every backend, so the rate
    # is only the csr kernel's where no coo_gather product ran.
    flops = layers.pop("_ops.spmm.flops")["value"]
    busy = layers.pop("_spmm_forward_busy_s")["value"]
    coo = layers["autodiff.spmm_coo.calls"]["value"] > 0
    layers["autodiff.spmm_csr.gflops"] = {
        "value": 0.0 if coo or busy <= 0 else flops / busy / 1e9, "samples": 1}
    return layers


def measure(workload: str, seed: int, seconds: float, trace: int,
            options: argparse.Namespace) -> Dict:
    """One benchmark run of one workload: the contract's result object
    (plus ``detail`` with min/max/sample counts and the check messages)."""
    pool_workers = WORKLOADS[workload].sweep_workers or 1
    nproc = len(os.sched_getaffinity(0))
    if pool_workers > nproc:
        raise BenchError(f"{workload} needs {pool_workers} pool workers but "
                         f"only {nproc} CPUs are available")
    spec = load_spec()
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=HERE))
    try:
        if trace:
            modes = ["telemetry", "wrapped"]
        else:
            modes = ["timed"] * TIMED_WORKERS
        records = [spawn(workload, seed, seconds / len(modes), mode, tmp,
                         options) for mode in modes]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, problems = check(records)
    detail = per_layer(records) if trace else end_to_end(records)
    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in detail]
    if missing:
        raise BenchError(f"{workload}: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": detail[m["name"]]["value"],
                           "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail, "problems": problems}


def report(workload: str, result: Dict) -> None:
    print(f"== {workload}: {result['attempted']} cells attempted, "
          f"{result['failed']} failed ==")
    for name, metric in result["metrics"].items():
        extra = result["detail"][name]
        spread = (f"  (min {extra['min']:.6g}, max {extra['max']:.6g}, "
                  f"n={extra['samples']})" if "min" in extra else "")
        print(f"{name:42s} {metric['value']:.6g} {metric['unit']}{spread}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")


# ======================================================================
# maintenance modes
# ======================================================================
def stamp(seed: int, seconds: float) -> Dict:
    sys.path.insert(1, str(ROOT / "src"))
    import numpy
    import scipy
    from repro.telemetry import git_sha, hardware_info

    return {"hardware": hardware_info(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(ROOT), "seed": seed, "run_seconds": seconds,
            "blas_threads": 1}


def record_baseline(names: List[str], seed: int, seconds: float,
                    options: argparse.Namespace) -> int:
    baseline = {"schema": "perf.baseline/v1", "stamp": stamp(seed, seconds),
                "workloads": {}}
    failed = 0
    for name in names:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, seed, seconds, trace, options)
            report(name, result)
            failed += result["failed"]
            entry[key] = result["detail"]
        baseline["workloads"][name] = entry
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 1 if failed else 0


def check_repeat(names: List[str], seed: int, seconds: float,
                 options: argparse.Namespace) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = 0
    print(f"{'workload':13s} {'metric':34s} {'first':>12s} {'second':>12s} "
          f"{'gap':>8s} {'bound':>6s}")
    for name in names:
        pooled = (WORKLOADS[name].sweep_workers or 1) > 1
        for trace in (0, 1):
            first = measure(name, seed, seconds, trace, options)
            second = measure(name, seed, seconds, trace, options)
            bad += first["failed"] + second["failed"]
            for metric, a in first["metrics"].items():
                a, b = a["value"], second["metrics"][metric]["value"]
                gap = abs(b - a) / abs(a) if a else float(b != a)
                if trace:
                    racy = pooled and not metric.startswith(
                        ("autodiff.", "filters."))
                    if not metric.endswith(EXACT_SUFFIXES) or racy:
                        continue
                    bound = 0.0
                else:
                    bound = 0.0 if metric in EXACT_END_TO_END else bounds[metric]
                verdict = "" if gap <= bound else "  <-- exceeds bound"
                bad += bool(verdict)
                if not trace or verdict:
                    print(f"{name:13s} {metric:34s} {a:12.6g} {b:12.6g} "
                          f"{gap:8.4f} {bound:6.2f}{verdict}")
    print("check-repeat:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run everything and write results/baseline.json")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--scale-mult", type=float, default=1.0,
                        help="self-test only: shrink every dataset")
    parser.add_argument("--device-capacity-gib", type=float,
                        help="self-test only: force simulated-device OOM cells")
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perf benchmark: src/repro or BENCHMARK.json not found under "
              f"{ROOT}; nothing to measure", file=sys.stderr)
        return 2
    for name in BLAS_PINS:
        os.environ[name] = "1"
    names = options.workload or list(WORKLOADS)
    seconds = options.seconds or load_spec()["run_seconds"]
    try:
        if options.record:
            return record_baseline(names, options.seed, seconds, options)
        if options.check_repeat:
            return check_repeat(names, options.seed, seconds, options)
        code = 0
        for name in names:
            result = measure(name, options.seed, seconds, options.trace, options)
            report(name, result)
            code |= 0 if result["correct"] else 1
            print(json.dumps({key: result[key] for key in
                              ("correct", "attempted", "failed", "metrics")}))
        return code
    except BenchError as error:
        print(f"perf benchmark: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
