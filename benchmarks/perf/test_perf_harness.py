"""Self-test of the perf benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs every workload at a tenth of its scale through the real driver, so
what is checked is the plumbing — metric names and units, span arithmetic,
patch hygiene, the failure path — not any timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys

import pytest

from benchmarks.perf import run, trace
from benchmarks.perf.workloads import WORKLOADS

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = run.load_spec()
FB_WORKLOADS = ("fb_ewise", "fb_spmm", "fb_edge")


def drive(*argv: str):
    """Run the driver in-process; returns (exit code, last-line JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    lines = out.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if lines else None)


@pytest.fixture(scope="module")
def smoke():
    """Both passes of all six workloads at tiny scale, run once."""
    results = {}
    for name in WORKLOADS:
        for trace_flag in (0, 1):
            code, result = drive("--workload", name, "--seed", "3",
                                 "--seconds", "0.3", "--scale-mult", "0.1",
                                 "--trace", str(trace_flag))
            assert code in (0, 1), f"{name}: harness error"
            results[name, trace_flag] = result
    return results


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace_flag,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(smoke, name, trace_flag, section):
    result = smoke[name, trace_flag]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for metric, entry in result["metrics"].items():
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
        assert entry["unit"] == declared[metric]
        assert isinstance(entry["value"], (int, float))


def test_spec_lists_the_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_precompute_is_a_layer_metric_and_zero_on_full_batch(smoke):
    # The contract wants every end-to-end metric on every workload and
    # never 0, so the stage FB does not have lives in the per-layer set.
    assert "precompute_s" not in {m["name"] for m in SPEC["end_to_end"]}
    for name in WORKLOADS:
        value = smoke[name, 1]["metrics"]["training.precompute_s"]["value"]
        assert (value == 0) == (name in FB_WORKLOADS)


def test_layer_choice_shows_in_the_trace(smoke):
    def layer(name, metric):
        return smoke[name, 1]["metrics"][metric]["value"]

    for name in WORKLOADS:
        assert (layer(name, "autodiff.spmm_coo.calls") > 0) == (name == "fb_edge")
    for name in FB_WORKLOADS:
        assert layer(name, "runtime.plan.hits") + layer(name, "runtime.plan.misses") == 0
    assert layer("sweep_serial", "runtime.plan.hits") > 0
    assert layer("sweep_pool2", "runtime.shm.segments_unlinked") > 0
    assert layer("sweep_pool2", "datasets.synthesize.calls") > \
        layer("sweep_serial", "datasets.synthesize.calls")


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        # name, start, end, parent, cell, pid
        ["root", 0.0, 10.0, -1, None, 1],
        ["a", 1.0, 4.0, 0, None, 1],
        ["b", 2.0, 3.0, 1, None, 1],
        ["a", 3.0, 3.5, 1, None, 1],      # same name nested in "a"
        ["w", 5.0, 8.0, 0, None, 2],      # two overlapping children, as
        ["w", 6.0, 9.0, 0, None, 3],      # from two pool workers
    ]
    selfs = trace.self_times(spans)
    assert selfs == pytest.approx([10 - 3 - 4, 3 - 1 - 0.5, 1, 0.5, 3, 3])
    totals = trace.aggregate(spans)
    assert totals["a"] == pytest.approx(
        {"calls": 2, "busy_s": 3.0, "self_s": 2.0})
    assert totals["w"]["busy_s"] == pytest.approx(6.0)
    assert sum(selfs[:4]) == pytest.approx(10 - 4)
    assert trace.unattributed_share(
        [["training.fit", 0.0, 2.0, -1, "ppr", 1],
         ["autodiff.ewise", 0.5, 2.0, 0, "ppr", 1]], wall_s=2.0) == \
        pytest.approx(0.25)


def test_wrappers_are_fully_uninstalled():
    from repro.autodiff import sparse
    from repro.autodiff.tensor import Tensor
    from repro.filters import base
    from repro.filters.bank import FilterBank
    from repro.runtime import plan

    def snapshot():
        return {
            "Tensor.__add__": Tensor.__dict__["__add__"],
            "Tensor.__radd__": Tensor.__dict__["__radd__"],
            "Tensor.backward": Tensor.__dict__["backward"],
            "sparse.spmm": sparse.spmm,
            "base.spmm": base.spmm,
            "base._combine": base._combine,
            "plan.chain_bases": plan.chain_bases,
            "SpectralFilter.forward": base.SpectralFilter.__dict__["forward"],
            "FilterBank.forward": FilterBank.__dict__["forward"],
        }

    before = snapshot()
    tracer = trace.Tracer()
    tracer.install()
    try:
        during = snapshot()
        assert all(during[key] is not before[key] for key in before)
    finally:
        tracer.uninstall()
    after = snapshot()
    assert all(after[key] is before[key] for key in before)
    assert not tracer._patches


def test_failed_cells_fail_the_run():
    code, result = drive("--workload", "fb_ewise", "--seed", "3",
                         "--seconds", "0.1", "--scale-mult", "0.1",
                         "--device-capacity-gib", "1e-6")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] <= result["attempted"]
