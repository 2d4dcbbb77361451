"""Telemetry layer: spans, metrics, sinks, manifests, reports, wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import telemetry
from repro.autodiff import Tensor, spmm
from repro.bench.io import load_jsonl, load_manifest, save_jsonl, save_rows
from repro.datasets.synthesis import synthesize
from repro.runtime.profiler import StageProfiler
from repro.tasks.node_classification import run_node_classification
from repro.telemetry.metrics import MetricsRegistry
from repro.training.loop import TrainConfig
import scipy.sparse as sp


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()


def spans_of(events):
    return [e for e in events if e["type"] == "span"]


class TestSpans:
    def test_nesting_parent_links(self):
        telemetry.configure()
        with telemetry.span("outer"):
            with telemetry.span("middle"):
                with telemetry.span("inner"):
                    pass
        events = telemetry.shutdown()
        spans = {e["name"]: e for e in spans_of(events)}
        assert spans["inner"]["parent"] == spans["middle"]["id"]
        assert spans["middle"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert (spans["outer"]["depth"], spans["middle"]["depth"],
                spans["inner"]["depth"]) == (0, 1, 2)

    def test_close_ordering_children_first(self):
        telemetry.configure()
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
            with telemetry.span("c"):
                pass
        names = [e["name"] for e in spans_of(telemetry.shutdown())]
        assert names == ["b", "c", "a"]

    def test_durations_nest(self):
        telemetry.configure()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        spans = {e["name"]: e for e in spans_of(telemetry.shutdown())}
        assert spans["outer"]["duration_s"] >= spans["inner"]["duration_s"]

    def test_sibling_spans_share_parent(self):
        telemetry.configure()
        with telemetry.span("root"):
            for _ in range(3):
                with telemetry.span("child"):
                    pass
        events = spans_of(telemetry.shutdown())
        root = [e for e in events if e["name"] == "root"][0]
        children = [e for e in events if e["name"] == "child"]
        assert len(children) == 3
        assert all(c["parent"] == root["id"] for c in children)

    def test_attrs_and_error_marker(self):
        telemetry.configure()
        with pytest.raises(ValueError):
            with telemetry.span("work", stage="x"):
                raise ValueError("boom")
        span = spans_of(telemetry.shutdown())[0]
        assert span["attrs"]["stage"] == "x"
        assert span["attrs"]["error"] == "ValueError"

    def test_emit_event_tags_current_span(self):
        telemetry.configure()
        with telemetry.span("outer") as span:
            telemetry.emit_event("custom", value=7)
        events = telemetry.shutdown()
        custom = [e for e in events if e["type"] == "custom"][0]
        assert custom["span"] == span.span_id
        assert custom["value"] == 7


class TestDisabledMode:
    def test_span_is_shared_noop_singleton(self):
        assert telemetry.span("anything") is telemetry.NOOP_SPAN
        assert telemetry.span("other", k=1) is telemetry.NOOP_SPAN

    def test_noop_span_usable(self):
        with telemetry.span("x") as s:
            s.set(attr=1)

    def test_free_functions_are_noops(self):
        telemetry.emit_event("e", a=1)
        telemetry.set_gauge("g", 2.0)
        telemetry.inc_counter("c")
        assert not telemetry.enabled()
        assert telemetry.get_tracer() is None
        assert telemetry.get_metrics() is None

    def test_disabled_overhead_no_allocation_per_call(self):
        # The disabled path must not build a new object per call.
        ids = {id(telemetry.span("s")) for _ in range(100)}
        assert len(ids) == 1


class TestMetrics:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(5)
        registry.gauge("g").set(3.0)
        registry.gauge("g").set(1.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 6
        assert snap["gauges"]["g"] == {"value": 1.0, "max": 3.0}


class TestOpCounters:
    def test_matmul_flops_counted(self):
        telemetry.configure()
        a = Tensor(np.ones((4, 8), dtype=np.float32))
        b = Tensor(np.ones((8, 3), dtype=np.float32))
        _ = a @ b
        metrics = telemetry.get_metrics()
        assert metrics.counter("ops.matmul.calls").value == 1
        assert metrics.counter("ops.matmul.flops").value == 2 * 4 * 3 * 8
        assert metrics.counter("ops.matmul.bytes").value == 4 * 3 * 4

    def test_spmm_flops_counted(self):
        telemetry.configure()
        matrix = sp.random(16, 16, density=0.25, format="csr",
                           random_state=0).astype(np.float32)
        dense = Tensor(np.ones((16, 5), dtype=np.float32))
        _ = spmm(matrix, dense)
        metrics = telemetry.get_metrics()
        assert metrics.counter("ops.spmm.calls").value == 1
        assert metrics.counter("ops.spmm.flops").value == 2 * matrix.nnz * 5

    def test_elementwise_flops_counted(self):
        """Elementwise ops feed the hook too: ~1 FLOP + one write per elem."""
        telemetry.configure()
        a = Tensor(np.ones((4, 8), dtype=np.float32))
        b = Tensor(np.ones((4, 8), dtype=np.float32))
        _ = a + b
        _ = (a * b).relu()
        metrics = telemetry.get_metrics()
        assert metrics.counter("ops.ewise.calls").value == 3
        assert metrics.counter("ops.ewise.flops").value == 3 * 4 * 8
        assert metrics.counter("ops.ewise.bytes").value == 3 * 4 * 8 * 4

    def test_elementwise_unary_ops_counted(self):
        telemetry.configure()
        a = Tensor(np.full((3, 3), 0.5, dtype=np.float32))
        for op in (a.exp, a.log, a.sqrt, a.abs, a.tanh, a.sigmoid,
                   a.__neg__, lambda: a.clip(0.0, 1.0), lambda: a ** 2.0):
            op()
        assert telemetry.get_metrics().counter("ops.ewise.calls").value == 9

    def test_bytes_attributed_to_open_span(self):
        telemetry.configure()
        with telemetry.span("compute"):
            a = Tensor(np.ones((4, 4), dtype=np.float32))
            _ = a @ a
        span = spans_of(telemetry.shutdown())[0]
        assert span["alloc_bytes"] == 4 * 4 * 4

    def test_hook_detached_after_shutdown(self):
        telemetry.configure()
        telemetry.shutdown()
        from repro.autodiff import tensor as tensor_mod
        assert tensor_mod._op_hook is None


class TestJsonlRoundTrip:
    def test_trace_round_trips_through_bench_io(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry.configure(trace_path=str(path))
        with telemetry.span("outer", tag="t"):
            telemetry.emit_event("epoch", epoch=0, loss=1.5)
        in_memory = telemetry.shutdown()
        reloaded = load_jsonl(path)
        assert reloaded == in_memory

    def test_save_load_jsonl(self, tmp_path):
        records = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "c": "x"}]
        path = tmp_path / "events.jsonl"
        save_jsonl(records, path)
        assert load_jsonl(path) == records

    def test_save_jsonl_numpy_safe(self, tmp_path):
        path = tmp_path / "events.jsonl"
        save_jsonl([{"v": np.float32(0.5), "n": np.int64(3)}], path)
        loaded = load_jsonl(path)
        assert loaded[0]["v"] == pytest.approx(0.5)
        assert loaded[0]["n"] == 3


class TestSinkRobustness:
    def test_load_events_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"span","name":"a"}\n'
                        '{"type":"span","name":"b"}\n'
                        '{"type":"span","na')  # killed writer mid-line
        events = telemetry.load_events(path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_load_events_raises_on_midfile_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"span","name":"a"}\n'
                        'not json at all\n'
                        '{"type":"span","name":"b"}\n')
        with pytest.raises(json.JSONDecodeError):
            telemetry.load_events(path)

    def test_jsonl_sink_serializes_exotic_payloads(self, tmp_path):
        from repro.telemetry.sinks import JsonlSink

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"np_int": np.int64(3), "np_float": np.float32(0.5),
                   "array_scalar": np.array(7.0),
                   "opaque": object()})  # falls back to str()
        sink.close()
        (event,) = telemetry.load_events(path)
        assert event["np_int"] == 3
        assert event["np_float"] == pytest.approx(0.5)
        assert event["array_scalar"] == pytest.approx(7.0)
        assert "object" in event["opaque"]

    def test_jsonl_sink_emit_after_close_is_silent(self, tmp_path):
        from repro.telemetry.sinks import JsonlSink

        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"n": 1})
        sink.close()
        sink.emit({"n": 2})   # dropped, not raised
        sink.flush()
        sink.close()          # idempotent
        assert [e["n"] for e in telemetry.load_events(path)] == [1]

    def test_tee_sink_fans_out_and_closes_every_child(self):
        class Recorder(telemetry.EventSink):
            def __init__(self):
                self.events, self.flushed, self.closed = [], 0, 0

            def emit(self, event):
                self.events.append(event)

            def flush(self):
                self.flushed += 1

            def close(self):
                self.closed += 1

        first, second = Recorder(), Recorder()
        tee = telemetry.TeeSink(first, second)
        tee.emit({"n": 1})
        tee.flush()
        tee.close()
        assert first.events == second.events == [{"n": 1}]
        assert (first.flushed, second.flushed) == (1, 1)
        assert (first.closed, second.closed) == (1, 1)


class TestManifest:
    def test_deterministic_across_runs(self):
        config = TrainConfig(epochs=7, seed=3)
        first = telemetry.build_manifest(config=config, seed=3,
                                         extra={"experiment": "eff"})
        second = telemetry.build_manifest(config=config, seed=3,
                                          extra={"experiment": "eff"})
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_contents(self):
        manifest = telemetry.build_manifest(config={"lr": 0.1}, seed=1)
        assert manifest["schema"].startswith("repro.telemetry.manifest/")
        assert manifest["seed"] == 1
        assert manifest["config"] == {"lr": 0.1}
        assert manifest["platform"]["numpy"] == np.__version__
        # Running inside this git repo, the SHA must resolve.
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40

    def test_write_read_round_trip(self, tmp_path):
        manifest = telemetry.build_manifest(seed=0)
        path = telemetry.write_manifest(tmp_path / "m.manifest.json", manifest)
        assert telemetry.read_manifest(path) == manifest

    def test_dataset_fingerprint_stable_and_sensitive(self):
        g1 = synthesize("cora", scale=0.05, seed=0)
        g2 = synthesize("cora", scale=0.05, seed=0)
        g3 = synthesize("cora", scale=0.05, seed=1)
        assert telemetry.dataset_fingerprint(g1) == telemetry.dataset_fingerprint(g2)
        assert telemetry.dataset_fingerprint(g1) != telemetry.dataset_fingerprint(g3)

    def test_sidecar_written_by_save_rows(self, tmp_path):
        path = tmp_path / "rows.json"
        save_rows([{"a": 1}], path, metadata={"experiment": "x"})
        sidecar = load_manifest(path)
        assert sidecar is not None
        assert sidecar["metadata"] == {"experiment": "x"}
        assert sidecar["num_rows"] == 1

    def test_sidecar_suppressed(self, tmp_path):
        path = tmp_path / "rows.json"
        save_rows([{"a": 1}], path, manifest=False)
        assert load_manifest(path) is None

    def test_manifest_path_for(self):
        assert str(telemetry.manifest_path_for("out/x.json")).endswith(
            "x.manifest.json")

    def test_hardware_snapshot_present_and_sane(self):
        manifest = telemetry.build_manifest(seed=0)
        hardware = manifest["hardware"]
        assert hardware["cpu_count"] >= 1
        assert hardware["total_ram_bytes"] >= 0
        assert telemetry.hardware_info() == hardware  # stable on one host

    def test_hardware_records_the_spmm_thread_budget(self):
        from repro.runtime import context

        hardware = telemetry.hardware_info()
        assert hardware["spmm_threads"] == context.available_cpus()
        with context.using(spmm_threads=4):
            hardware = telemetry.build_manifest(seed=0,
                                                workers=2)["hardware"]
        assert hardware["spmm_threads"] == 4
        assert hardware["spmm_threads_per_worker"] == 2

    def test_hardware_outside_config_fingerprint(self):
        from repro.telemetry.registry import config_fingerprint

        manifest = telemetry.build_manifest(seed=0,
                                            extra={"experiment": "eff"})
        perturbed = dict(manifest)
        perturbed["hardware"] = {"cpu_count": 4096,
                                 "total_ram_bytes": 2 ** 50}
        assert (config_fingerprint(manifest)
                == config_fingerprint(perturbed)), \
            "hardware must not change a run's configuration identity"


class TestReport:
    def test_sparkline_shape(self):
        line = telemetry.sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_flat_and_empty(self):
        assert telemetry.sparkline([5, 5, 5]) == "▁▁▁"
        assert telemetry.sparkline([]) == ""

    def test_render_trace_report_sections(self):
        telemetry.configure()
        with telemetry.span("train"):
            telemetry.emit_event("epoch", epoch=0, loss=2.0, valid_score=0.5)
            telemetry.emit_event("epoch", epoch=1, loss=1.0, valid_score=0.7)
        telemetry.inc_counter("ops.matmul.flops", 1000)
        events = telemetry.shutdown()
        report = telemetry.render_trace_report(events)
        assert "top" in report and "train" in report
        assert "loss" in report and "valid_score" in report
        assert "ops.matmul.flops" in report

    def test_report_empty_events(self):
        report = telemetry.render_trace_report([])
        assert "no spans" in report


class TestTrainingIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self):
        telemetry.shutdown()
        telemetry.configure()
        graph = synthesize("cora", scale=0.05, seed=0)
        result = run_node_classification(
            graph, "ppr", scheme="mini_batch",
            config=TrainConfig(epochs=3, patience=0, eval_every=1))
        events = telemetry.shutdown()
        return result, events

    def test_stage_span_hierarchy(self, traced_run):
        _, events = traced_run
        spans = {e["id"]: e for e in spans_of(events)}
        names = {e["name"] for e in spans.values()}
        assert {"precompute", "train", "epoch", "forward", "backward"} <= names
        forward = next(e for e in spans.values() if e["name"] == "forward")
        chain = []
        cursor = forward
        while cursor is not None:
            chain.append(cursor["name"])
            cursor = spans.get(cursor["parent"])
        assert chain[:3] == ["forward", "epoch", "train"]

    def test_epoch_events_recorded(self, traced_run):
        _, events = traced_run
        epochs = [e for e in events if e["type"] == "epoch"]
        assert len(epochs) == 3
        assert all(e["loss"] is not None for e in epochs)
        assert all(e["valid_score"] is not None for e in epochs)
        assert all(e["grad_norm"] is not None and e["grad_norm"] > 0
                   for e in epochs)
        assert [e["epoch"] for e in epochs] == [0, 1, 2]

    def test_op_counters_populated(self, traced_run):
        _, events = traced_run
        metrics_events = [e for e in events if e["type"] == "metrics"]
        assert metrics_events
        counters = metrics_events[-1]["metrics"]["counters"]
        assert counters["ops.spmm.calls"] > 0
        assert counters["ops.matmul.flops"] > 0
        assert counters["train.epochs"] == 3

    def test_profiler_view_matches_live_run(self, traced_run):
        result, events = traced_run
        view = StageProfiler.from_events(events)
        live = result.profiler
        for stage in ("precompute", "train", "inference"):
            assert view.stages[stage].calls == live.stages[stage].calls
            assert view.stages[stage].seconds == pytest.approx(
                live.stages[stage].seconds, rel=0.2)
        assert view.stages["train"].op_class == "transform"
        assert view.stages["precompute"].op_class == "propagation"
        assert view.peak_ram_bytes() == live.peak_ram_bytes()

    def test_result_unaffected_by_tracing(self):
        graph = synthesize("cora", scale=0.05, seed=0)
        config = TrainConfig(epochs=3, patience=0, eval_every=1)
        plain = run_node_classification(graph, "ppr", scheme="mini_batch",
                                        config=config)
        telemetry.configure()
        traced = run_node_classification(graph, "ppr", scheme="mini_batch",
                                         config=config)
        telemetry.shutdown()
        assert traced.test_score == pytest.approx(plain.test_score)
        assert traced.epochs_run == plain.epochs_run


class TestCli:
    def test_trace_flag_writes_artifacts(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        trace = tmp_path / "run.jsonl"
        code = main(["efficiency", "--datasets", "cora", "--filters", "ppr",
                     "--schemes", "mini_batch", "--epochs", "2",
                     "--trace", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry" in out and "per-epoch metrics" in out
        events = load_jsonl(trace)
        names = {e["name"] for e in events if e["type"] == "span"}
        assert {"experiment", "precompute", "train", "epoch",
                "forward", "backward"} <= names
        manifest = telemetry.read_manifest(
            telemetry.manifest_path_for(trace))
        assert manifest["experiment"] == "efficiency"
        assert manifest["config"]["epochs"] == 2

    def test_no_telemetry_flag(self, capsys):
        from repro.bench.__main__ import main

        code = main(["efficiency", "--datasets", "cora", "--filters", "ppr",
                     "--schemes", "mini_batch", "--epochs", "2",
                     "--no-telemetry"])
        assert code == 0
        assert not telemetry.enabled()
        assert "telemetry" not in capsys.readouterr().out

    def test_parser_accepts_flags(self):
        from repro.bench.__main__ import build_parser

        args = build_parser().parse_args(
            ["efficiency", "--trace", "t.jsonl", "--no-telemetry"])
        assert args.trace == "t.jsonl"
        assert args.no_telemetry


def _span(span_id, parent, name, seconds, alloc, **extra):
    return {"type": "span", "id": span_id, "parent": parent, "name": name,
            "duration_s": seconds, "alloc_bytes": alloc, **extra}


#: root(10s, 1000B) -> a(4s, 300B) -> c(1s, 50B); root -> b(3s, 200B)
TREE_EVENTS = [
    _span(3, 2, "c", 1.0, 50),
    _span(2, 1, "a", 4.0, 300),
    _span(4, 1, "b", 3.0, 200),
    _span(1, None, "root", 10.0, 1000),
]


class TestExclusiveAggregation:
    def test_self_values_subtract_direct_children(self):
        stats = telemetry.aggregate_spans(TREE_EVENTS)
        assert stats["root"]["seconds"] == 10.0
        assert stats["root"]["self_seconds"] == pytest.approx(3.0)
        assert stats["a"]["self_seconds"] == pytest.approx(3.0)
        assert stats["c"]["self_seconds"] == pytest.approx(1.0)
        assert stats["root"]["self_alloc_bytes"] == 500
        assert stats["a"]["self_alloc_bytes"] == 250
        assert stats["b"]["self_alloc_bytes"] == \
            stats["b"]["alloc_bytes"] == 200

    def test_exclusive_telescopes_to_inclusive_root(self):
        """Σ self over every span == inclusive total of the root spans."""
        stats = telemetry.aggregate_spans(TREE_EVENTS)
        assert sum(e["self_seconds"] for e in stats.values()) \
            == pytest.approx(stats["root"]["seconds"])
        assert sum(e["self_alloc_bytes"] for e in stats.values()) \
            == stats["root"]["alloc_bytes"]

    def test_telescoping_holds_on_a_live_trace(self):
        telemetry.configure()
        with telemetry.span("root"):
            with telemetry.span("a"):
                with telemetry.span("c"):
                    sum(range(2000))
            with telemetry.span("b"):
                sum(range(2000))
        events = telemetry.shutdown()
        stats = telemetry.aggregate_spans(events)
        root_inclusive = stats["root"]["seconds"]
        assert sum(e["self_seconds"] for e in stats.values()) \
            == pytest.approx(root_inclusive, rel=1e-9)
        assert all(e["self_seconds"] >= 0 for e in stats.values())

    def test_tolerates_missing_fields(self):
        """Partially-written spans degrade gracefully, never raise."""
        ragged = [
            {"type": "span", "name": "a", "duration_s": 1.0},  # no id/parent
            {"type": "span", "name": "a"},                     # no numerics
            {"type": "span", "id": 7, "parent": None,
             "duration_s": None, "alloc_bytes": None, "name": "b"},
            {"type": "span", "duration_s": 5.0},               # no name
            {"type": "epoch", "loss": 1.0},
        ]
        stats = telemetry.aggregate_spans(ragged)
        assert stats["a"]["calls"] == 2
        assert stats["a"]["seconds"] == 1.0
        assert stats["a"]["self_seconds"] == 1.0   # no linkage: self==incl
        assert stats["b"]["seconds"] == 0.0
        assert "span" not in stats and None not in stats

    def test_renderers_tolerate_ragged_events(self):
        ragged = [
            {"type": "span", "name": "a", "duration_s": 1.0},
            {"type": "span", "duration_s": 2.0},
            {"type": "metrics"},                       # no payload
            {"type": "metrics", "metrics": None},
            {"type": "metrics", "metrics": {"counters": None}},
            {"type": "metrics",
             "metrics": {"counters": {"ops.x.calls": 3, "note": "text"}}},
        ]
        top = telemetry.render_top_spans(ragged)
        assert "a" in top and "self" in top
        counters = telemetry.render_counters(ragged)
        assert "ops.x.calls" in counters and "note" in counters
        assert "no counters" in telemetry.render_counters(
            [{"type": "metrics", "metrics": {"counters": {}}}])


class TestRunDiff:
    def test_span_and_counter_deltas(self):
        baseline = TREE_EVENTS + [
            {"type": "metrics",
             "metrics": {"counters": {"ops.spmm.flops": 100,
                                      "ops.matmul.flops": 50}}}]
        candidate = [
            _span(3, 2, "c", 1.0, 50),
            _span(2, 1, "a", 7.0, 300),        # a got 3s slower
            _span(4, 1, "b", 3.0, 200),
            _span(1, None, "root", 13.0, 1000),
            {"type": "metrics",
             "metrics": {"counters": {"ops.spmm.flops": 300,
                                      "ops.matmul.flops": 50}}}]
        text = telemetry.render_run_diff(baseline, candidate)
        assert "span diff" in text and "counter diff" in text
        # 'a' has the largest self-time delta, so it leads the table.
        span_lines = [ln for ln in text.splitlines()
                      if ln.startswith(("a ", "root ", "b ", "c "))]
        assert span_lines[0].startswith("a ")
        assert "+75.0%" in text            # a: 4s -> 7s inclusive
        assert "ops.spmm.flops" in text and "+200" in text
        assert "ops.matmul.flops" not in text   # unchanged counters hidden

    def test_empty_traces(self):
        text = telemetry.render_run_diff([], [])
        assert "no spans" in text and "no counter changes" in text


class TestRegistryMergeFrom:
    def test_counters_and_gauges_fold(self):
        main, shard = MetricsRegistry(), MetricsRegistry()
        main.counter("ops.spmm.calls").inc(5)
        shard.counter("ops.spmm.calls").inc(7)
        shard.counter("ops.eig.calls").inc(1)
        main.gauge("ram").set(100)
        shard.gauge("ram").set(80)
        shard.gauge("ram").set(60)
        merged = main.merge_from(shard).snapshot()
        assert merged["counters"]["ops.spmm.calls"] == 12
        assert merged["counters"]["ops.eig.calls"] == 1
        assert merged["gauges"]["ram"]["max"] == 100
        assert merged["gauges"]["ram"]["value"] == 60
