"""Live sweep telemetry: worker heartbeats, stall detection, watch line.

The pooled sweep executor (:mod:`repro.runtime.pool`) is opaque while it
runs: the parent learns a cell hung only when the ``--cell-timeout`` kill
fires, and memory peaks are reconstructed post-hoc from span deltas. This
module adds a *streaming* side channel between workers and the parent:

- **Worker side** — each cell attempt gets a :class:`LiveEmitter` writing
  small best-effort events (``cell_start``, throttled ``heartbeat`` ticks
  with counter deltas, sampled ``rss`` watermarks from a
  :class:`RssSampler` daemon thread) over the attempt's dedicated side
  pipe. Instrumented code (the per-epoch trainer hook) calls
  :func:`tick`, a no-op unless the run context carries an emitter.
- **Parent side** — the pool's scheduler loop drains the side pipes
  without blocking and feeds a :class:`SweepMonitor`, which aggregates a
  live sweep state (cells running/ok/failed/retrying, per-attempt
  last-heartbeat age, RSS watermarks per worker), flags a **stall** when
  an attempt's heartbeat goes silent for a configurable fraction of the
  cell timeout — *strictly before* the timeout kill — and renders either
  a ``--watch`` TTY status line or a ``live.jsonl`` event stream through
  the ordinary :class:`~repro.telemetry.sinks.EventSink` hierarchy.

Determinism discipline: live events are observability, never payload.
They travel on their own pipe, land on their own sink, and the counters
they touch (``live.*``) are outside
:func:`repro.bench.io.deterministic_counters`, so the serial≡parallel
byte-identity gates are untouched by live monitoring being on or off.

The post-run Chrome-trace exporter over these events lives in
:mod:`repro.telemetry.trace_export`.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .rss import current_rss_bytes as _rss_bytes
from .sinks import EventSink, NullSink

#: Schema tag stamped into ``sweep_start`` events (and the live.jsonl docs).
LIVE_SCHEMA = "repro.telemetry.live/v1"

#: Cell-finish statuses the monitor distinguishes beyond the pool's own
#: terminal set: a failed attempt that will run again reports RETRYING.
RETRYING = "retrying"


# ======================================================================
# worker side
# ======================================================================
class LiveEmitter:
    """Best-effort event writer for one cell attempt.

    ``send`` is any callable taking one event dict — a pipe connection's
    ``send`` in a pooled worker, the monitor's :meth:`SweepMonitor.
    handle_event` in inline mode. Every event is stamped with the cell
    label, attempt number, worker pid, and a wall-clock ``t``. A failed
    send (parent gone, pipe full and sheared) permanently detaches the
    emitter: live telemetry must never crash or block a cell.
    """

    def __init__(self, send: Callable[[Dict], None], cell: str,
                 attempt: int = 1, min_interval_s: float = 0.05):
        self._send = send
        self.cell = cell
        self.attempt = int(attempt)
        self.min_interval_s = float(min_interval_s)
        self.pid = os.getpid()
        self.detached = False
        self._lock = threading.Lock()
        self._last_sent: Dict[str, float] = {}
        self._counter_base: Dict[str, float] = {}

    def emit(self, event_type: str, **fields) -> None:
        """Send one event (never raises; detaches on a dead channel)."""
        if self.detached:
            return
        event = {"type": event_type, "cell": self.cell,
                 "attempt": self.attempt, "pid": self.pid,
                 "t": round(time.time(), 6)}
        event.update(fields)
        try:
            with self._lock:
                self._send(event)
        except Exception:
            self.detached = True

    def heartbeat(self, kind: str = "tick", **fields) -> None:
        """Throttled progress tick, annotated with op-counter deltas.

        At most one heartbeat per ``min_interval_s`` goes out (the first
        always does); each carries the change in every telemetry counter
        since the previous heartbeat, so the parent can rank stragglers
        by *rate of progress*, not just wall age.
        """
        if self.detached:
            return
        now = time.monotonic()
        last = self._last_sent.get("heartbeat")
        if last is not None and now - last < self.min_interval_s:
            return
        self._last_sent["heartbeat"] = now
        self.emit("heartbeat", kind=kind,
                  counters=self._counter_deltas() or None, **fields)

    def _counter_deltas(self) -> Dict[str, float]:
        from . import get_metrics  # deferred: package init imports us

        registry = get_metrics()
        if registry is None:
            return {}
        values = registry.counter_values()
        deltas = {name: value - self._counter_base.get(name, 0)
                  for name, value in values.items()
                  if value != self._counter_base.get(name, 0)}
        self._counter_base = values
        return deltas

    def detach(self) -> None:
        """Stop sending (the channel is owned by the caller, not closed)."""
        self.detached = True


class RssSampler(threading.Thread):
    """Daemon thread sampling this process's RSS onto a live emitter.

    Emits one ``rss`` event per ``interval_s`` with the instantaneous
    value and the running watermark — the sampled memory timeline the
    paper's OOM accounting needs, at a cost of one /proc read per tick.
    """

    def __init__(self, emitter: LiveEmitter, interval_s: float = 0.2):
        super().__init__(name="live-rss-sampler", daemon=True)
        self.emitter = emitter
        self.interval_s = float(interval_s)
        self.watermark = 0
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            rss = _rss_bytes()
            if rss > self.watermark:
                self.watermark = rss
            self.emitter.emit("rss", rss_bytes=rss,
                              watermark_bytes=self.watermark)

    def stop(self) -> None:
        self._stop_event.set()


def tick(kind: str = "tick", **fields) -> None:
    """Heartbeat from instrumented code to the run context's emitter (the
    current cell attempt's); a no-op outside a live worker session.

    The per-epoch trainer hook calls this on every epoch, so any cell
    that is actually training produces a heartbeat stream regardless of
    how chatty its spans are.
    """
    from ..runtime import context

    emitter = context.current().emitter
    if emitter is not None:
        emitter.heartbeat(kind, **fields)


@contextmanager
def worker_session(send: Optional[Callable[[Dict], None]], cell: str,
                   attempt: int = 1, rss_interval_s: float = 0.2):
    """Live-telemetry scope of one cell attempt (worker or inline).

    Installs the emitter on the run context, announces ``cell_start``,
    runs the RSS sampler for the duration, and on exit ships a final
    ``rss`` watermark before detaching. With ``send=None`` (live
    monitoring off) the body runs with zero live machinery.
    """
    from ..runtime import context

    if send is None:
        yield None
        return
    emitter = LiveEmitter(send, cell, attempt)
    sampler = RssSampler(emitter, interval_s=rss_interval_s)
    emitter.emit("cell_start")
    sampler.start()
    try:
        with context.using(emitter=emitter):
            yield emitter
    finally:
        sampler.stop()
        sampler.join(timeout=1.0)
        rss = _rss_bytes()
        emitter.emit("rss", rss_bytes=rss,
                     watermark_bytes=max(sampler.watermark, rss))
        emitter.detach()


# ======================================================================
# parent side
# ======================================================================
@dataclass(frozen=True)
class LiveConfig:
    """Policy knobs for :class:`SweepMonitor`.

    Parameters
    ----------
    stall_fraction:
        An attempt is flagged stalled once its heartbeat has been silent
        for this fraction of the cell timeout — before the kill fires
        (hence the < 1 bound the CLI enforces).
    stall_after_s:
        Absolute silence threshold in seconds, overriding the fraction;
        also the only way to get stall detection without a cell timeout.
    watch:
        Render the single-line TTY status to ``out`` while running.
    watch_interval_s:
        Minimum seconds between watch-line repaints.
    rss_interval_s:
        Worker-side RSS sampling period.
    """

    stall_fraction: float = 0.5
    stall_after_s: Optional[float] = None
    watch: bool = False
    watch_interval_s: float = 0.25
    rss_interval_s: float = 0.2


class SweepMonitor:
    """Parent-side aggregation of one sweep's live event stream.

    The pool's scheduler feeds it (``attempt_launched`` at spawn, drained
    pipe events through ``handle_event``, ``cell_finished`` at terminal
    or retry transitions, ``check`` every loop iteration); the monitor
    normalizes everything onto ``sink`` — the ``live.jsonl`` stream —
    maintains the aggregate state the watch line renders, and raises
    ``stall`` events for silent attempts. All entry points are
    thread-safe: inline mode delivers events from the RSS sampler thread.
    """

    def __init__(self, sink: Optional[EventSink] = None,
                 config: Optional[LiveConfig] = None,
                 out=None, clock: Callable[[], float] = time.monotonic,
                 wall: Callable[[], float] = time.time):
        self.sink = sink or NullSink()
        self.config = config or LiveConfig()
        self.out = sys.stderr if out is None else out
        self._clock = clock
        self._wall = wall
        self._lock = threading.RLock()
        self.total_cells = 0
        self.workers = 1
        self.cell_timeout: Optional[float] = None
        self.ok = 0
        self.cached = 0
        self.failed = 0
        self.retried = 0
        self.heartbeats: Dict[str, int] = {}
        self.stalls: List[Dict] = []
        self.rss_watermarks: Dict[int, int] = {}
        self._active: Dict[Tuple[str, int], Dict] = {}
        self._last_render = float("-inf")
        self._render_width = 0
        self._closed = False

    # -- sweep lifecycle ------------------------------------------------
    def sweep_started(self, cells: int, workers: int,
                      cell_timeout: Optional[float] = None) -> None:
        with self._lock:
            self.total_cells = int(cells)
            self.workers = int(workers)
            self.cell_timeout = cell_timeout
            self._emit({"type": "sweep_start", "schema": LIVE_SCHEMA,
                        "cells": int(cells), "workers": int(workers),
                        "cell_timeout": cell_timeout,
                        "stall_threshold_s": self.stall_threshold()})

    def sweep_finished(self, stats: Optional[Dict] = None) -> None:
        with self._lock:
            self._emit({"type": "sweep_finish", "summary": self.summary(),
                        "pool": dict(stats) if stats else None})
            self._render(final=True)
            self.sink.flush()

    # -- attempt lifecycle (called by the pool scheduler) ---------------
    def attempt_launched(self, cell: str, attempt: int) -> None:
        now = self._clock()
        with self._lock:
            self._active[(cell, int(attempt))] = {
                "cell": cell, "attempt": int(attempt), "pid": None,
                "started": now, "last": now, "stalled": False,
                "rss_watermark": 0,
            }
            self._emit({"type": "cell_launch", "cell": cell,
                        "attempt": int(attempt)})
            self._render()

    def handle_event(self, event: Dict) -> None:
        """Ingest one worker-side event (heartbeat / cell_start / rss).

        Only *progress* events (``cell_start``, ``heartbeat``) reset the
        stall clock: the RSS sampler thread keeps ticking inside a hung
        cell, so counting its samples as liveness would mask exactly the
        stalls this monitor exists to flag.
        """
        with self._lock:
            key = (event.get("cell"), int(event.get("attempt") or 1))
            entry = self._active.get(key)
            if entry is not None:
                if event.get("type") in ("cell_start", "heartbeat"):
                    entry["last"] = self._clock()
                pid = event.get("pid")
                if pid is not None:
                    entry["pid"] = pid
            if event.get("type") == "heartbeat":
                cell = event.get("cell")
                self.heartbeats[cell] = self.heartbeats.get(cell, 0) + 1
            elif event.get("type") == "rss":
                watermark = int(event.get("watermark_bytes") or 0)
                pid = event.get("pid")
                if entry is not None and watermark > entry["rss_watermark"]:
                    entry["rss_watermark"] = watermark
                if pid is not None and watermark > self.rss_watermarks.get(pid, 0):
                    self.rss_watermarks[pid] = watermark
            self._emit(dict(event))
            self._render()

    def cell_finished(self, cell: str, attempt: int, status: str,
                      seconds: float) -> None:
        with self._lock:
            entry = self._active.pop((cell, int(attempt)), None)
            if status == "ok":
                self.ok += 1
            elif status == "cached":
                self.cached += 1
            elif status == RETRYING:
                self.retried += 1
            else:
                self.failed += 1
            self._emit({"type": "cell_finish", "cell": cell,
                        "attempt": int(attempt), "status": status,
                        "seconds": round(float(seconds), 6),
                        "pid": entry.get("pid") if entry else None,
                        "stalled": entry.get("stalled") if entry else None})
            self._render()

    # -- stall detection ------------------------------------------------
    def stall_threshold(self) -> Optional[float]:
        """Silence (seconds) after which an attempt counts as stalled."""
        if self.config.stall_after_s is not None:
            return float(self.config.stall_after_s)
        if self.cell_timeout is not None:
            return float(self.cell_timeout) * self.config.stall_fraction
        return None

    def check(self, now: Optional[float] = None) -> List[Dict]:
        """Scan active attempts for silence; emit each stall exactly once.

        Returns the stall events raised by *this* scan (empty normally).
        Called by the scheduler on every loop iteration, i.e. strictly
        more often than the timeout check that kills the attempt.
        """
        threshold = self.stall_threshold()
        raised: List[Dict] = []
        with self._lock:
            now = self._clock() if now is None else now
            if threshold is not None:
                for entry in self._active.values():
                    silent = now - entry["last"]
                    if silent >= threshold and not entry["stalled"]:
                        entry["stalled"] = True
                        event = {"type": "stall", "cell": entry["cell"],
                                 "attempt": entry["attempt"],
                                 "pid": entry["pid"],
                                 "silent_s": round(silent, 3),
                                 "threshold_s": round(threshold, 3)}
                        self.stalls.append(event)
                        raised.append(event)
                        self._emit(dict(event))
            self._render(now=now)
        return raised

    # -- aggregate views ------------------------------------------------
    def summary(self) -> Dict:
        """Flat sweep-state snapshot (the ``sweep_finish`` payload)."""
        with self._lock:
            return {
                "cells": self.total_cells,
                "done": self.ok + self.cached + self.failed,
                "ok": self.ok,
                "cached": self.cached,
                "failed": self.failed,
                "retried": self.retried,
                "running": len(self._active),
                "stalls": len(self.stalls),
                "heartbeats": sum(self.heartbeats.values()),
                "cells_with_heartbeats": len(self.heartbeats),
                "rss_watermark_bytes":
                    max(self.rss_watermarks.values(), default=0),
            }

    def running_cells(self, now: Optional[float] = None) -> List[Dict]:
        """Active attempts, longest-running first (straggler ranking)."""
        with self._lock:
            now = self._clock() if now is None else now
            entries = sorted(self._active.values(),
                             key=lambda e: e["started"])
            return [{"cell": e["cell"], "attempt": e["attempt"],
                     "pid": e["pid"], "running_s": round(now - e["started"], 3),
                     "heartbeat_age_s": round(now - e["last"], 3),
                     "stalled": e["stalled"],
                     "rss_watermark_bytes": e["rss_watermark"]}
                    for e in entries]

    # -- rendering / teardown -------------------------------------------
    def _emit(self, event: Dict) -> None:
        event.setdefault("t", round(self._wall(), 6))
        self.sink.emit(event)

    def _render(self, now: Optional[float] = None, final: bool = False) -> None:
        if not self.config.watch or self.out is None or self._closed:
            return
        now = self._clock() if now is None else now
        if not final and now - self._last_render < self.config.watch_interval_s:
            return
        self._last_render = now
        line = self.render_line(now)
        self._render_width = max(self._render_width, len(line))
        try:
            self.out.write("\r" + line.ljust(self._render_width)
                           + ("\n" if final else ""))
            self.out.flush()
        except (OSError, ValueError):  # closed stream: stop rendering
            self._closed = True

    def render_line(self, now: Optional[float] = None) -> str:
        """The one-line live status (also what ``--watch`` prints)."""
        with self._lock:
            now = self._clock() if now is None else now
            done = self.ok + self.cached + self.failed
            parts = [f"[sweep {done}/{self.total_cells}]",
                     f"ok:{self.ok}", f"fail:{self.failed}"]
            if self.cached:
                parts.append(f"cached:{self.cached}")
            if self.retried:
                parts.append(f"retry:{self.retried}")
            if self.stalls:
                parts.append(f"stall:{len(self.stalls)}")
            for entry in self.running_cells(now)[:2]:
                flag = "!" if entry["stalled"] else ""
                parts.append(f"{flag}{entry['cell']}#{entry['attempt']} "
                             f"{entry['running_s']:.0f}s "
                             f"hb{entry['heartbeat_age_s']:.1f}s")
            peak = max(self.rss_watermarks.values(), default=0)
            if peak:
                parts.append(f"rss:{peak / 2**20:.0f}MiB")
            return " ".join(parts)[:140]

    def close(self) -> None:
        """Flush and close the sink (idempotent; ends the watch line)."""
        with self._lock:
            self._render(final=True)
            self._closed = True
        self.sink.close()
