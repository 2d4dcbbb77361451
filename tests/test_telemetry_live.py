"""Live sweep observatory (:mod:`repro.telemetry.live`) tests.

Covers the worker-side channel (emitter stamping/throttling/detach, RSS
sampler, worker_session lifecycle, `tick`), the parent-side
:class:`SweepMonitor` (stall detection against a fake clock, accounting,
watch-line rendering), the Chrome trace exporter, and the end-to-end
pooled integration: heartbeats for every cell, and a hung cell's stall
event arriving strictly before the timeout kill.
"""

from __future__ import annotations

import json
import time

import pytest

from repro import telemetry
from repro.runtime import context
from repro.runtime.pool import OK, TIMEOUT, Cell, PoolConfig, execute_cells
from repro.telemetry import live
from repro.telemetry.live import (
    LIVE_SCHEMA,
    RETRYING,
    LiveConfig,
    LiveEmitter,
    RssSampler,
    SweepMonitor,
    worker_session,
)
from repro.telemetry.sinks import MemorySink
from repro.telemetry.trace_export import (
    SCHEDULER_TID,
    chrome_trace_events,
    export_chrome_trace,
)


@pytest.fixture(autouse=True)
def _clean_state():
    telemetry.shutdown()
    yield
    telemetry.shutdown()


# --- module-level cell functions: picklable under any start method ------

def _ticking_cell(x, ticks=3):
    for i in range(ticks):
        live.tick("step", step=i)
    return x * x


def _hang(seconds=60.0):
    time.sleep(seconds)
    return "never"


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_monitor(sink=None, clock=None, **config):
    return SweepMonitor(sink=sink or MemorySink(),
                        config=LiveConfig(**config), out=None,
                        clock=clock or FakeClock())


# ======================================================================
# worker side
# ======================================================================
class TestLiveEmitter:
    def test_stamps_cell_attempt_pid_and_time(self):
        events = []
        emitter = LiveEmitter(events.append, "cora/ppr", attempt=2)
        emitter.emit("cell_start")
        (event,) = events
        assert event["type"] == "cell_start"
        assert event["cell"] == "cora/ppr"
        assert event["attempt"] == 2
        assert event["pid"] > 0
        assert isinstance(event["t"], float)

    def test_heartbeat_throttles_but_first_always_sends(self):
        events = []
        emitter = LiveEmitter(events.append, "c", min_interval_s=60.0)
        emitter.heartbeat("epoch", epoch=0)
        emitter.heartbeat("epoch", epoch=1)  # inside the interval: dropped
        assert [e["epoch"] for e in events] == [0]

    def test_failed_send_detaches_permanently(self):
        calls = []

        def broken(event):
            calls.append(event)
            raise BrokenPipeError("parent gone")

        emitter = LiveEmitter(broken, "c")
        emitter.emit("cell_start")   # raises inside, swallowed
        emitter.emit("cell_start")   # already detached: not even attempted
        assert emitter.detached
        assert len(calls) == 1

    def test_heartbeat_carries_counter_deltas(self):
        telemetry.configure()
        telemetry.inc_counter("ops.spmm.calls", 5)
        events = []
        emitter = LiveEmitter(events.append, "c", min_interval_s=0.0)
        emitter.heartbeat()
        telemetry.inc_counter("ops.spmm.calls", 3)
        emitter.heartbeat()
        first, second = events
        assert first["counters"]["ops.spmm.calls"] == 5
        assert second["counters"]["ops.spmm.calls"] == 3  # delta, not total

    def test_heartbeat_without_telemetry_has_no_counters(self):
        events = []
        LiveEmitter(events.append, "c").heartbeat()
        assert events[0]["counters"] is None


class TestRssSampler:
    def test_emits_watermarked_samples(self):
        events = []
        emitter = LiveEmitter(events.append, "c")
        sampler = RssSampler(emitter, interval_s=0.01)
        sampler.start()
        time.sleep(0.08)
        sampler.stop()
        sampler.join(timeout=1.0)
        rss = [e for e in events if e["type"] == "rss"]
        assert rss, "sampler produced no samples"
        assert all(e["rss_bytes"] > 0 for e in rss)
        assert all(e["watermark_bytes"] >= e["rss_bytes"] for e in rss)


class TestWorkerSession:
    def test_installs_emitter_and_brackets_with_events(self):
        events = []
        assert context.current().emitter is None
        with worker_session(events.append, "cora/ppr", attempt=1,
                            rss_interval_s=10.0):
            assert context.current().emitter is not None
            live.tick("epoch", epoch=0)
        assert context.current().emitter is None
        types = [e["type"] for e in events]
        assert types[0] == "cell_start"
        assert "heartbeat" in types
        assert types[-1] == "rss"  # final watermark on exit

    def test_none_send_is_a_noop(self):
        with worker_session(None, "c") as emitter:
            assert emitter is None
            assert context.current().emitter is None
            live.tick()  # must not raise

    def test_tick_without_session_is_noop(self):
        live.tick("epoch", epoch=1)  # no emitter installed: silent


# ======================================================================
# parent side
# ======================================================================
class TestSweepMonitor:
    def test_sweep_lifecycle_events_reach_sink(self):
        sink = MemorySink()
        monitor = make_monitor(sink=sink)
        monitor.sweep_started(4, 2, cell_timeout=60.0)
        monitor.sweep_finished()
        types = [e["type"] for e in sink.events]
        assert types == ["sweep_start", "sweep_finish"]
        assert sink.events[0]["schema"] == LIVE_SCHEMA
        assert sink.events[0]["stall_threshold_s"] == 30.0
        assert sink.events[1]["summary"]["cells"] == 4

    def test_finish_accounting(self):
        monitor = make_monitor()
        monitor.sweep_started(3, 2)
        for cell, status in (("a", OK), ("b", RETRYING), ("c", "error")):
            monitor.attempt_launched(cell, 1)
            monitor.cell_finished(cell, 1, status, 1.0)
        summary = monitor.summary()
        assert summary["ok"] == 1
        assert summary["failed"] == 1
        assert summary["retried"] == 1
        assert summary["done"] == 2  # a retrying cell is not done

    def test_stall_fires_once_after_threshold(self):
        clock = FakeClock()
        sink = MemorySink()
        monitor = make_monitor(sink=sink, clock=clock, stall_fraction=0.5)
        monitor.sweep_started(1, 1, cell_timeout=10.0)
        monitor.attempt_launched("slow", 1)
        clock.advance(4.9)
        assert monitor.check() == []          # under 5.0s threshold
        clock.advance(0.2)
        raised = monitor.check()
        assert len(raised) == 1
        assert raised[0]["cell"] == "slow"
        assert raised[0]["threshold_s"] == 5.0
        clock.advance(10.0)
        assert monitor.check() == []          # once per attempt
        assert len([e for e in sink.events if e["type"] == "stall"]) == 1

    def test_progress_heartbeat_resets_stall_clock_but_rss_does_not(self):
        clock = FakeClock()
        monitor = make_monitor(clock=clock, stall_after_s=5.0)
        monitor.sweep_started(1, 1)
        monitor.attempt_launched("c", 1)
        clock.advance(4.0)
        monitor.handle_event({"type": "heartbeat", "cell": "c", "attempt": 1,
                              "pid": 42, "t": 0.0})
        clock.advance(4.0)
        assert monitor.check() == []          # heartbeat reset the clock
        clock.advance(0.5)
        monitor.handle_event({"type": "rss", "cell": "c", "attempt": 1,
                              "pid": 42, "watermark_bytes": 1, "t": 0.0})
        clock.advance(0.6)
        assert len(monitor.check()) == 1      # rss did not reset it

    def test_stall_needs_timeout_or_absolute_threshold(self):
        clock = FakeClock()
        monitor = make_monitor(clock=clock)   # no timeout, no stall_after_s
        monitor.sweep_started(1, 1)
        monitor.attempt_launched("c", 1)
        clock.advance(1e6)
        assert monitor.stall_threshold() is None
        assert monitor.check() == []

    def test_rss_watermarks_per_worker_and_summary_peak(self):
        monitor = make_monitor()
        monitor.sweep_started(2, 2)
        for pid, watermark in ((11, 100), (22, 300), (11, 200)):
            monitor.handle_event({"type": "rss", "cell": "c", "attempt": 1,
                                  "pid": pid, "watermark_bytes": watermark,
                                  "t": 0.0})
        assert monitor.rss_watermarks == {11: 200, 22: 300}
        assert monitor.summary()["rss_watermark_bytes"] == 300

    def test_running_cells_ranked_longest_first(self):
        clock = FakeClock()
        monitor = make_monitor(clock=clock)
        monitor.sweep_started(2, 2)
        monitor.attempt_launched("first", 1)
        clock.advance(3.0)
        monitor.attempt_launched("second", 1)
        clock.advance(1.0)
        running = monitor.running_cells()
        assert [r["cell"] for r in running] == ["first", "second"]
        assert running[0]["running_s"] == 4.0
        assert running[1]["running_s"] == 1.0

    def test_render_line_mentions_progress_and_stragglers(self):
        clock = FakeClock()
        monitor = make_monitor(clock=clock, watch=True)
        monitor.sweep_started(3, 2, cell_timeout=60.0)
        monitor.attempt_launched("cora/ppr", 1)
        monitor.cell_finished("cora/ppr", 1, OK, 1.0)
        monitor.attempt_launched("cora/cheb", 1)
        clock.advance(2.0)
        line = monitor.render_line()
        assert "[sweep 1/3]" in line
        assert "ok:1" in line
        assert "cora/cheb#1" in line

    def test_heartbeat_counting_per_cell(self):
        monitor = make_monitor()
        monitor.sweep_started(2, 1)
        for cell in ("a", "a", "b"):
            monitor.handle_event({"type": "heartbeat", "cell": cell,
                                  "attempt": 1, "pid": 1, "t": 0.0})
        assert monitor.heartbeats == {"a": 2, "b": 1}
        assert monitor.summary()["heartbeats"] == 3
        assert monitor.summary()["cells_with_heartbeats"] == 2

    def test_monitoring_scope_installs_and_closes(self):
        sink = MemorySink()
        monitor = make_monitor(sink=sink)
        assert context.current().monitor is None
        with context.using(monitor=monitor) as run:
            assert run.monitor is monitor
            assert context.current().monitor is monitor
        assert context.current().monitor is None


# ======================================================================
# Chrome trace export
# ======================================================================
def _synthetic_live_events():
    return [
        {"type": "sweep_start", "cells": 2, "workers": 2, "t": 1000.0},
        {"type": "cell_start", "cell": "a", "attempt": 1, "pid": 11,
         "t": 1000.1},
        {"type": "cell_start", "cell": "b", "attempt": 1, "pid": 22,
         "t": 1000.1},
        {"type": "heartbeat", "cell": "a", "attempt": 1, "pid": 11,
         "kind": "epoch", "epoch": 0, "t": 1000.2},
        {"type": "rss", "cell": "a", "attempt": 1, "pid": 11,
         "rss_bytes": 2 ** 20, "watermark_bytes": 2 ** 20, "t": 1000.3},
        {"type": "stall", "cell": "b", "attempt": 1, "pid": 22,
         "silent_s": 0.5, "threshold_s": 0.4, "t": 1000.6},
        {"type": "cell_finish", "cell": "a", "attempt": 1, "pid": 11,
         "status": "ok", "seconds": 0.5, "t": 1000.6},
        {"type": "cell_finish", "cell": "b", "attempt": 1, "pid": 22,
         "status": "timeout", "seconds": 0.9, "t": 1001.0},
    ]


class TestChromeTraceExport:
    def test_tracks_slices_counters_and_instants(self):
        events = chrome_trace_events(_synthetic_live_events())
        names = {e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert names == {"scheduler", "worker 11", "worker 22"}

        slices = {e["name"]: e for e in events
                  if e.get("ph") == "X" and e.get("cat") == "cell"}
        assert slices["a"]["tid"] == 11
        assert slices["b"]["tid"] == 22
        assert slices["a"]["args"]["status"] == "ok"
        assert slices["a"]["dur"] == 500_000  # 0.5s in microseconds

        counters = [e for e in events if e.get("ph") == "C"]
        assert counters and counters[0]["name"] == "rss"
        assert counters[0]["args"] == {"w11": 1.0}  # MiB

        stalls = [e for e in events if e.get("name") == "stall"]
        assert stalls[0]["s"] == "g"
        assert stalls[0]["args"]["cell"] == "b"

    def test_worker_spans_rebase_at_cell_start(self):
        span = {"type": "span", "name": "train", "t_start_s": 0.1,
                "duration_s": 0.2, "alloc_bytes": 0,
                "attrs": {"shard": "a"}}
        events = chrome_trace_events(_synthetic_live_events(), [span])
        (out,) = [e for e in events if e.get("cat") == "span"]
        assert out["tid"] == 11
        # cell a starts at 1000.1, sweep t0 = 1000.0 -> 0.1 + 0.1 = 0.2s
        assert out["ts"] == 200_000
        assert out["dur"] == 200_000

    def test_parent_spans_rebase_at_epoch_and_baseless_spans_skipped(self):
        spans = [{"type": "span", "name": "experiment", "t_start_s": 0.0,
                  "duration_s": 1.0, "attrs": {}},
                 {"type": "span", "name": "orphan", "t_start_s": 0.0,
                  "duration_s": 1.0, "attrs": {"shard": "nope"}}]
        with_epoch = chrome_trace_events(_synthetic_live_events(), spans,
                                         span_epoch_wall=1000.0)
        parents = [e for e in with_epoch if e.get("cat") == "span"]
        assert {e["name"] for e in parents} == {"experiment"}
        assert parents[0]["tid"] == SCHEDULER_TID
        without = chrome_trace_events(_synthetic_live_events(), spans)
        assert all(e.get("cat") != "span" for e in without)

    def test_export_writes_valid_json(self, tmp_path):
        path = export_chrome_trace(tmp_path / "trace.json",
                                   _synthetic_live_events())
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["displayTimeUnit"] == "ms"
        assert all(e["ts"] >= 0 for e in payload["traceEvents"]
                   if "ts" in e)


# ======================================================================
# pooled integration
# ======================================================================
class TestPooledIntegration:
    def test_every_cell_heartbeats_across_workers(self):
        sink = MemorySink()
        monitor = SweepMonitor(sink=sink, config=LiveConfig(), out=None)
        cells = [Cell(key=("cell", i), fn=_ticking_cell, kwargs={"x": i})
                 for i in range(3)]
        with context.using(monitor=monitor):
            results = execute_cells(cells, PoolConfig(workers=2))
        assert [r.status for r in results] == [OK] * 3
        labels = {c.label for c in cells}
        started = {e["cell"] for e in sink.events
                   if e["type"] == "cell_start"}
        beating = {e["cell"] for e in sink.events
                   if e["type"] == "heartbeat"}
        assert started == labels
        assert beating == labels
        assert monitor.summary()["ok"] == 3
        assert monitor.summary()["rss_watermark_bytes"] > 0

    def test_inline_mode_streams_the_same_events(self):
        sink = MemorySink()
        monitor = SweepMonitor(sink=sink, config=LiveConfig(), out=None)
        cells = [Cell(key=("cell", 0), fn=_ticking_cell, kwargs={"x": 2})]
        with context.using(monitor=monitor):
            results = execute_cells(cells, PoolConfig(workers=1))
        assert results[0].value == 4
        types = [e["type"] for e in sink.events]
        for expected in ("sweep_start", "cell_launch", "cell_start",
                         "heartbeat", "cell_finish", "sweep_finish"):
            assert expected in types

    def test_hung_cell_stalls_strictly_before_timeout_kill(self):
        sink = MemorySink()
        monitor = SweepMonitor(sink=sink,
                               config=LiveConfig(stall_fraction=0.3),
                               out=None)
        cells = [Cell(key=("hung",), fn=_hang)]
        with context.using(monitor=monitor):
            results = execute_cells(
                cells, PoolConfig(workers=2, cell_timeout=2.0,
                                  max_retries=0))
        assert results[0].status == TIMEOUT
        types = [e["type"] for e in sink.events]
        assert "stall" in types, "hung cell was killed without a stall flag"
        assert types.index("stall") < types.index("cell_finish"), \
            "stall event must precede the timeout kill"
        (stall,) = [e for e in sink.events if e["type"] == "stall"]
        assert stall["silent_s"] < 2.0  # flagged before the budget expired
        finish = [e for e in sink.events if e["type"] == "cell_finish"][0]
        assert finish["status"] == TIMEOUT
        assert finish["stalled"] is True
