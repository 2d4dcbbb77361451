"""Hierarchical span tracing: the timeline backbone of telemetry.

A *span* is one timed region of the pipeline — a precompute stage, one
training epoch, a single forward pass — opened as a context manager and
nested freely. Each closed span becomes one event of the run's trace,
carrying wall time, parent linkage, the bytes the autodiff engine
allocated while it was open, the signed change in current host RSS across
it (see :mod:`repro.telemetry.rss`), and — when the allocation ledger is
installed — the ledger-accounted bytes and live-memory high-water mark.
The paper's stage tables (Figure 2, Tables 9–11) are aggregations of
exactly these records, folded by
:func:`repro.telemetry.report.aggregate_spans`.

Overhead discipline: when telemetry is disabled (no tracer configured),
callers receive the shared :data:`NOOP_SPAN` singleton whose enter/exit do
nothing — the hot path pays one ``None`` check and no allocation.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from .metrics import MetricsRegistry
from .rss import current_rss_bytes

PathLike = Union[str, Path]


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton no-op span; identity-comparable in tests.
NOOP_SPAN = _NoopSpan()


class Span:
    """One open (then closed) timed region.

    Spans are created by :meth:`Tracer.span`, never directly. While open
    they sit on the per-thread span stack; on exit the tracer records them
    as a ``{"type": "span", ...}`` event.
    """

    __slots__ = ("tracer", "name", "span_id", "parent_id", "depth", "attrs",
                 "start_s", "duration_s", "alloc_bytes", "ram_delta_bytes",
                 "mem_bytes", "mem_peak_bytes", "_rss_at_open", "_thread")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int, attrs: Dict):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self.start_s = 0.0
        self.duration_s = 0.0
        self.alloc_bytes = 0
        self.ram_delta_bytes = 0
        #: Ledger-accounted engine allocations while open (inclusive; fed
        #: by the allocation-ledger hook, zero when no ledger installed).
        self.mem_bytes = 0
        #: High-water mark of the ledger's live bytes while open.
        self.mem_peak_bytes = 0
        self._rss_at_open = 0
        self._thread = ""

    def __enter__(self) -> "Span":
        self._thread = threading.current_thread().name
        self.tracer._push(self)
        self._rss_at_open = current_rss_bytes()
        self.start_s = time.perf_counter() - self.tracer.epoch_s
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.tracer.epoch_s - self.start_s
        # Signed current-RSS delta (see repro.telemetry.rss): negative when
        # the span net-freed resident memory.
        self.ram_delta_bytes = current_rss_bytes() - self._rss_at_open
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False

    def to_event(self) -> Dict:
        """Serializable record of a closed span."""
        return {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "thread": self._thread,
            "t_start_s": round(self.start_s, 9),
            "duration_s": self.duration_s,
            "alloc_bytes": self.alloc_bytes,
            "ram_delta_bytes": self.ram_delta_bytes,
            "mem_bytes": self.mem_bytes,
            "mem_peak_bytes": self.mem_peak_bytes,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Thread-safe hierarchical span collector that keeps every event.

    Closed spans and free-form events land in :attr:`events`, in order.
    Given ``trace_path``, each event is also written to that file as one
    compact JSON line; the file is opened eagerly, so a crashed run still
    leaves a partial trace. The run's counters and gauges land in a fresh
    :attr:`metrics` registry.
    """

    def __init__(self, trace_path: Optional[PathLike]):
        self.events: List[Dict] = []
        self.metrics = MetricsRegistry()
        self.epoch_s = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._file = None
        if trace_path is not None:
            path = Path(trace_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file = path.open("w", encoding="utf-8")

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs) -> Span:
        """Create a span ready to be entered (``with tracer.span("x"):``)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        return Span(
            self, name, next(self._ids),
            parent.span_id if parent else None,
            len(stack), attrs,
        )

    def _push(self, span: Span) -> None:
        # Re-derive linkage at entry time: the span may be entered later
        # (or on a different thread) than it was created.
        stack = self._stack()
        parent = stack[-1] if stack else None
        span.parent_id = parent.span_id if parent else None
        span.depth = len(stack)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        while stack and stack[-1] is not span:  # tolerate mis-nesting
            stack.pop()
        if stack:
            stack.pop()
        self.emit(span.to_event())

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def next_span_id(self) -> int:
        """Reserve a fresh span id (worker-shard events are re-identified
        with parent-unique ids when folded into this tracer's stream)."""
        return next(self._ids)

    # ------------------------------------------------------------------
    # attribution feeds
    # ------------------------------------------------------------------
    def add_alloc_bytes(self, nbytes: int) -> None:
        """Attribute engine-allocated bytes to every open span (inclusive)."""
        for span in self._stack():
            span.alloc_bytes += nbytes

    def add_mem_bytes(self, nbytes: int, live_bytes: int) -> None:
        """Attribute one ledger-accounted allocation to every open span.

        ``mem_bytes`` accumulates inclusively (every open span sees the
        allocation, like :meth:`add_alloc_bytes`), so the exclusive view
        computed by :func:`repro.telemetry.report.aggregate_spans`
        telescopes back to the root spans' inclusive totals.
        ``mem_peak_bytes`` tracks the ledger's live high-water mark while
        the span was open.
        """
        for span in self._stack():
            span.mem_bytes += nbytes
            if live_bytes > span.mem_peak_bytes:
                span.mem_peak_bytes = live_bytes

    def current_path(self) -> str:
        """The open span-tree path on this thread (``"a/b/c"``; ``""`` at
        top level) — the allocation ledger's attribution key."""
        return "/".join(span.name for span in self._stack())

    def emit_event(self, event_type: str, **fields) -> None:
        """Record a free-form event tagged with the current span context."""
        current = self.current_span()
        event = {"type": event_type, "span": current.span_id if current else None}
        event.update(fields)
        self.emit(event)

    def emit(self, event: Dict) -> None:
        """Keep one event, and write it to the trace file while open.

        An event emitted after :meth:`close` is still kept in
        :attr:`events` but never reaches the closed file.
        """
        line = None
        if self._file is not None:
            line = json.dumps(event, separators=(",", ":"), sort_keys=True,
                              default=_json_default)
        with self._lock:
            self.events.append(event)
            if line is not None and not self._file.closed:
                self._file.write(line + "\n")

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the trace file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()

    def discard(self) -> None:
        """Close this process's descriptor of the trace file without
        writing the lines still buffered: a forked child's copy of its
        parent's tracer, whose buffer the parent still owns."""
        if self._file is not None:
            self._file.buffer.raw.close()


def _json_default(value):
    """Serialize numpy scalars and anything else with a float/str view.

    Numpy scalars (and 0-d arrays) unwrap via ``.item()`` so fractional
    values keep their fraction: an int-first cast would truncate
    ``float32(0.5)`` to ``0`` in the trace. Everything else falls back to
    an int/float view when it has one, else ``str``.
    """
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "ndim", None) in (None, 0):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    for cast in (float, int):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)
