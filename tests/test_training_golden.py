"""One loop, seven entry points: golden numbers and the shared skeleton.

``tests/data/training_golden.json`` was captured at the parent of the
single-loop refactor (commit 4ac9e6c, seven hand-written epoch loops) on
the ``small_graph`` fixture at seed 0. The one value that is *not* the
parent's is link prediction's ``ram_peak_bytes``, which takes the fixed
accounting (channels + propagation matrix, as the mini-batch scheme).
When dropout moved to its 16-bit raw draw, the seeded stream moved, and
the scores, ``epochs_run`` and ``calls.train`` were re-captured once
(``benchmarks/bench_stream_equivalence.py`` judges that move); every
byte count, status and partition value is still the original capture.
The same numbers hold when every CSR product runs in row tiles on two
threads (:class:`TestGoldenThreaded`); :class:`TestGolden` itself is the
one-thread case, since its products sit below the threading minimum.

The tests check each entry through ``RECORDERS``, the table the
recorder runs, so a deliberate re-capture is ``PYTHONPATH=src python -m
tests.test_training_golden --capture`` (without ``--capture`` it prints
the values), and :func:`test_recorders_cover_golden` holds the table's
keys to the file's.
"""

from __future__ import annotations

import argparse
import json
from functools import partial
from pathlib import Path

import pytest

from repro import telemetry
from repro.bench.baseline_runners import (
    train_ansgt,
    train_iterative_baseline,
    train_nagphormer,
)
from repro.datasets import random_split, synthesize
from repro.filters import make_filter
from repro.runtime import blocked, context
from repro.runtime.device import DeviceModel, nbytes_of
from repro.tasks import run_link_prediction, run_node_classification
from repro.training import SCHEMES, TrainConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "training_golden.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

NC = TrainConfig(epochs=20, patience=2, eval_every=2, batch_size=64, seed=0)
LP = TrainConfig(epochs=3, batch_size=256, seed=0)
BL = TrainConfig(epochs=2, patience=0, eval_every=10, batch_size=128, seed=0)
FILTERS = ("ppr", "chebyshev", "fbgnn2")
LINK_FILTERS = ("identity", "ppr")
BASELINES = {
    "GCN": lambda g, s, **kw: train_iterative_baseline("GCN", g, s, BL, **kw),
    "GraphSAGE": lambda g, s, **kw: train_iterative_baseline(
        "GraphSAGE", g, s, BL, **kw),
    "ChebNet": lambda g, s, **kw: train_iterative_baseline(
        "ChebNet", g, s, BL, backend="coo_gather", **kw),
    "NAGphormer": lambda g, s, **kw: train_nagphormer(g, s, BL, **kw),
    "ANS-GT": lambda g, s, **kw: train_ansgt(g, s, BL, **kw),
}


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.shutdown()
    yield
    telemetry.shutdown()


def _traced(fn):
    """Run ``fn`` under telemetry; returns (outcome, events, stage calls)."""
    telemetry.configure()
    try:
        outcome = fn()
    finally:
        events = telemetry.shutdown()
    # Entries per stage span; a stage that only recorded memory is 0.
    calls = {}
    for event in events:
        if event["type"] == "stage.memory":
            calls.setdefault(event["stage"], 0)
        elif (event["type"] == "span"
              and event.get("attrs", {}).get("kind") == "stage"):
            calls[event["name"]] = calls.get(event["name"], 0) + 1
    return outcome, events, calls


def _check(key, observed):
    expected = GOLDEN[key]
    assert set(observed) == set(expected)
    for field, value in expected.items():
        if isinstance(value, float):
            assert observed[field] == pytest.approx(value, abs=1e-6), field
        else:
            assert observed[field] == value, field


def _scheme(graph, scheme, filter_name):
    split = random_split(graph.num_nodes, seed=0)
    result, _, calls = _traced(lambda: run_node_classification(
        graph, filter_name, scheme=scheme, config=NC, split=split))
    return {"status": result.status, "epochs_run": result.epochs_run,
            "test_score": result.test_score,
            "valid_score": result.valid_score,
            "device_peak_bytes": result.device_peak_bytes,
            "ram_peak_bytes": result.ram_peak_bytes,
            "cut_edges": result.cut_edges, "num_parts": result.num_parts,
            "calls": calls}


def _link_prediction(graph, filter_name):
    result, _, calls = _traced(lambda: run_link_prediction(
        graph, filter_name, config=LP))
    return {"status": result.status, "epochs_run": result.epochs_run,
            "test_score": result.test_score,
            "device_peak_bytes": result.device_peak_bytes,
            "ram_peak_bytes": result.ram_peak_bytes, "calls": calls}


def _baseline(graph, model_name):
    split = random_split(graph.num_nodes, seed=0)
    row, _, calls = _traced(lambda: BASELINES[model_name](graph, split))
    return {"status": row["status"], "test_score": row["accuracy"],
            "device_peak_bytes": row["device_bytes"], "calls": calls}


#: Golden key -> the function of the graph that observes it.
RECORDERS = {
    **{f"{scheme}/{name}": partial(_scheme, scheme=scheme, filter_name=name)
       for scheme in SCHEMES for name in FILTERS},
    **{f"link_prediction/{name}": partial(_link_prediction, filter_name=name)
       for name in LINK_FILTERS},
    **{f"baseline/{name}": partial(_baseline, model_name=name)
       for name in BASELINES},
}


def capture(graph) -> dict:
    """Every golden entry observed on ``graph``, keyed as in the file."""
    return {key: observe(graph) for key, observe in sorted(RECORDERS.items())}


class TestGolden:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("filter_name", FILTERS)
    def test_schemes(self, small_graph, scheme, filter_name):
        key = f"{scheme}/{filter_name}"
        _check(key, RECORDERS[key](small_graph))

    @pytest.mark.parametrize("filter_name", LINK_FILTERS)
    def test_link_prediction(self, small_graph, filter_name):
        key = f"link_prediction/{filter_name}"
        _check(key, RECORDERS[key](small_graph))

    @pytest.mark.parametrize("model_name", list(BASELINES))
    def test_baselines(self, small_graph, model_name):
        key = f"baseline/{model_name}"
        _check(key, RECORDERS[key](small_graph))

    def test_link_prediction_ram_counts_the_propagation_matrix(self, small_graph):
        """Same precompute as the mini-batch scheme, so the same RAM: the
        channel tensor *and* the propagation matrix that produced it."""
        filter_ = make_filter("ppr", num_hops=10,
                              num_features=small_graph.num_features)
        channels = filter_.precompute(small_graph, small_graph.features,
                                      rho=LP.rho)
        expected = channels.nbytes + nbytes_of(
            small_graph.normalized_adjacency(LP.rho))
        result = run_link_prediction(small_graph, "ppr", config=LP)
        assert result.ram_peak_bytes == expected
        assert result.ram_peak_bytes == run_node_classification(
            small_graph, "ppr", scheme="mini_batch", config=LP).ram_peak_bytes


class TestGoldenThreaded:
    """Every training-step product tiled (the work minimum is 0) on two
    threads: the golden numbers do not move."""

    @pytest.fixture(autouse=True)
    def _threaded(self, monkeypatch):
        monkeypatch.setattr(blocked, "THREADED_MIN_WORK", 0)
        with context.using(spmm_threads=2):
            yield

    @pytest.mark.parametrize("scheme", list(SCHEMES))
    @pytest.mark.parametrize("filter_name", FILTERS)
    def test_schemes(self, small_graph, scheme, filter_name):
        TestGolden().test_schemes(small_graph, scheme, filter_name)

    @pytest.mark.parametrize("model_name", list(BASELINES))
    def test_baselines(self, small_graph, model_name):
        TestGolden().test_baselines(small_graph, model_name)


def _entry_points():
    """(id, epochs, run(graph, split, capacity_bytes) -> status, device bytes)."""
    def scheme(name):
        def run(graph, split, capacity):
            trainer = SCHEMES[name](
                device=DeviceModel(capacity_bytes=capacity, name=name))
            filter_ = make_filter("ppr", num_hops=4,
                                  num_features=graph.num_features)
            config = TrainConfig(epochs=3, patience=0, phi0_layers=0,
                                 batch_size=64)
            result = trainer.fit(graph, split, filter_, config)
            return result.status, result.device_peak_bytes
        return name, 3, run

    def link_prediction(graph, split, capacity):
        result = run_link_prediction(
            graph, "ppr", config=LP,
            device_capacity_gib=None if capacity is None else capacity / 2 ** 30)
        return result.status, result.device_peak_bytes

    def baseline(name):
        def run(graph, split, capacity):
            row = BASELINES[name](
                graph, split,
                device_capacity_gib=None if capacity is None else capacity / 2 ** 30)
            return row["status"], row["device_bytes"]
        return name, BL.epochs, run

    return [scheme(name) for name in SCHEMES] \
        + [("link_prediction", LP.epochs, link_prediction)] \
        + [baseline(name) for name in ("GCN", "NAGphormer", "ANS-GT")]


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("name,epochs,run", ENTRY_POINTS,
                         ids=[entry[0] for entry in ENTRY_POINTS])
class TestSameSkeleton:
    """Every entry point is timed and metered by the same code."""

    def test_spans_stages_and_events_agree(self, small_graph, name, epochs, run):
        split = random_split(small_graph.num_nodes, seed=0)
        (status, device_bytes), events, calls = _traced(
            lambda: run(small_graph, split, None))
        spans = [e["name"] for e in events if e["type"] == "span"]
        assert status == "ok"
        assert spans.count("epoch") == calls["train"] == epochs
        assert calls["inference"] == 1
        assert spans.count("forward") == spans.count("backward") >= epochs
        assert [e["epoch"] for e in events if e["type"] == "epoch"] \
            == list(range(epochs))
        assert device_bytes > 0

    def test_oom_keeps_the_stage_table(self, small_graph, name, epochs, run):
        split = random_split(small_graph.num_nodes, seed=0)
        (status, _), _, calls = _traced(lambda: run(small_graph, split, 1))
        assert status == "oom"
        assert "train" in calls


def test_recorders_cover_golden():
    """``--capture`` writes exactly the entries :class:`TestGolden`
    checks field by field, through the same recorders."""
    assert set(RECORDERS) == set(GOLDEN)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help=f"rewrite {GOLDEN_PATH.name} from this tree")
    args = parser.parse_args()
    # The small_graph fixture of tests/conftest.py.
    values = capture(synthesize("cora", scale=0.1, seed=3))
    text = json.dumps(values, indent=1, sort_keys=True) + "\n"
    if args.capture:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {len(values)} entries to {GOLDEN_PATH}")
    else:
        print(text, end="")
