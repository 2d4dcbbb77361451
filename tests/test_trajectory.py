"""``benchmarks/trajectory.py`` against a stub ``run.py``: the record's
schema, append-only writes, and the checkout's commit."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

WRITER = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
METRICS = ("setup_s", "wall_s", "train_s_per_epoch", "ram_bytes",
           "device_bytes", "rss_peak_bytes")

#: Prints a report line, then the result object ``run.py`` ends with;
#: ``wall_s`` is the workload name's length, so records are checkable.
STUB = textwrap.dedent("""\
    import argparse, json
    parser = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--trace", "--seconds"):
        parser.add_argument(flag)
    args = parser.parse_args()
    print(f"== {args.workload} ==")
    metrics = {name: {"value": 1.0, "unit": "s"} for name in %r}
    metrics["wall_s"]["value"] = float(len(args.workload))
    correct = args.workload != "fb_edge"
    print(json.dumps({"correct": correct, "attempted": 3,
                      "failed": 0 if correct else 3, "metrics": metrics}))
""") % (METRICS,)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=checkout, check=True, capture_output=True, text=True).stdout


@pytest.fixture
def writer(monkeypatch):
    # main() pins the BLAS thread variables and puts src/ on sys.path;
    # both are restored after the test.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("trajectory", WRITER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calibrate = module.calibrate
    monkeypatch.setattr(module, "calibrate", lambda: calibrate(rounds=1))
    return module


@pytest.fixture
def checkout(tmp_path):
    root = tmp_path / "checkout"
    (root / "benchmarks" / "perf").mkdir(parents=True)
    (root / "benchmarks" / "perf" / "run.py").write_text(STUB)
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "stub")
    return root


def _run(writer, checkout, out, *extra):
    return writer.main(["--checkout", str(checkout), "--out", str(out),
                        "--workload", "mb_decoupled",
                        "--workload", "sweep_serial", *extra])


def test_record_schema_and_sha(writer, checkout, tmp_path):
    out = tmp_path / "BENCH_trajectory.json"
    assert _run(writer, checkout, out, "--pr", "7", "--seed", "3") == 0
    [record] = json.loads(out.read_text())
    assert set(record) == {"git_sha", "dirty", "diff_sha", "pr", "seed",
                           "seconds", "host", "workloads"}
    assert record["git_sha"] == _git(checkout, "rev-parse", "HEAD").strip()
    assert (record["dirty"], record["diff_sha"], record["pr"],
            record["seed"], record["seconds"]) == (False, None, 7, 3, None)
    host = record["host"]
    assert set(host) == {"calib_s", "calib_par", "calib_drift", "nproc",
                         "simd_dispatch", "mem_total"}
    assert host["calib_s"] > 0 and host["calib_par"] > 0
    assert host["nproc"] >= 1 and host["mem_total"] > 0
    assert host["simd_dispatch"].startswith("numpy-")
    assert set(record["workloads"]) == {"mb_decoupled", "sweep_serial"}
    for name, medians in record["workloads"].items():
        assert set(medians) == set(METRICS)
        assert medians["wall_s"] == len(name)


def test_writes_only_append(writer, checkout, tmp_path):
    out = tmp_path / "BENCH_trajectory.json"
    _run(writer, checkout, out)
    first = out.read_text()
    (checkout / "benchmarks" / "perf" / "run.py").write_text(
        STUB + "# edited\n")
    _run(writer, checkout, out, "--seconds", "2")
    second = out.read_text()
    # Earlier lines are kept byte for byte; the new record is one line.
    assert second.startswith(first[:-len("\n]\n")] + ",\n")
    assert len(second.splitlines()) == len(first.splitlines()) + 1
    old, new = json.loads(second)
    assert old == json.loads(first)[0]
    assert (old["dirty"], new["dirty"]) == (False, True)
    assert new["git_sha"] == old["git_sha"]
    assert new["seconds"] == 2.0


def test_diff_sha_names_the_measured_tree(writer, checkout, tmp_path):
    """A dirty record carries the sha256 of ``git diff HEAD``: equal for
    the same edit, different for another, and ``None`` once clean."""
    out = tmp_path / "BENCH_trajectory.json"
    run_py = checkout / "benchmarks" / "perf" / "run.py"
    for edit in ("# one\n", "# one\n", "# two\n", None):
        run_py.write_text(STUB + (edit or ""))
        _run(writer, checkout, out)
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=checkout,
                          check=True, capture_output=True).stdout
    assert diff == b""
    first, same, other, clean = json.loads(out.read_text())
    assert first["diff_sha"] == same["diff_sha"] != other["diff_sha"]
    assert len(first["diff_sha"]) == 64 and first["dirty"]
    assert (clean["diff_sha"], clean["dirty"]) == (None, False)
    run_py.write_text(STUB + "# two\n")
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=checkout,
                          check=True, capture_output=True).stdout
    assert other["diff_sha"] == hashlib.sha256(diff).hexdigest()


def test_failed_workload_appends_nothing(writer, checkout, tmp_path):
    out = tmp_path / "BENCH_trajectory.json"
    _run(writer, checkout, out)
    before = out.read_text()
    with pytest.raises(SystemExit, match="fb_edge"):
        writer.main(["--checkout", str(checkout), "--out", str(out),
                     "--workload", "fb_edge"])
    assert out.read_text() == before
