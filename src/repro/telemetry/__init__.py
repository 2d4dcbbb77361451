"""repro.telemetry — spans, metrics, and run manifests for the benchmark.

The paper's contribution is *measurement*; this package is the instrument.
It provides three connected layers:

- **Spans** (:mod:`.spans`): a hierarchical, thread-safe tracer. Trainers
  and the profiler open nested spans (``precompute → train → epoch →
  forward/backward``) whose wall time, allocated bytes, and RAM growth
  land in the tracer's event list (and its JSONL trace file, if any).
- **Metrics** (:mod:`.metrics`): counters and gauges fed by op hooks in
  :mod:`repro.autodiff` (matmul/spmm FLOPs and bytes) and by
  the :mod:`repro.runtime` cache/planner layers (``cache.*`` memo
  traffic; ``plan.terms.{hit,miss,evict}`` / ``plan.chains.*`` /
  ``plan.spmm_avoided`` basis-term store traffic).
- **Artifacts** (:mod:`.spans`, :mod:`.manifest`, :mod:`.report`): a JSONL
  trace file, a deterministic run manifest written next to every result
  file, and a terminal report (top spans with inclusive *and* exclusive
  cost, per-epoch sparklines).
- **Run records** (:mod:`.registry`): an append-only run registry holding
  one record per bench invocation — config fingerprint, stage aggregates,
  counters, and the ``memory`` / ``pool`` / ``artifacts`` blocks the
  smoke gates read back with ``RunRegistry.load()``. Regressions and
  history are the perf harness's (``benchmarks/perf/run.py``), not here.

Module-level usage — the pattern every instrumented call site follows::

    from repro import telemetry

    telemetry.configure(trace_path="run.jsonl")   # None → memory only
    with telemetry.span("precompute", filter="ppr"):
        ...
    telemetry.emit_event("epoch", epoch=0, loss=1.2)
    events = telemetry.shutdown()                 # flush + detach hooks

A *session* is one tracer plus its allocation ledger, with the engine's op
and allocation hooks attached to it. :func:`configure` opens one and
:func:`shutdown` closes it; :func:`shard_capture` nests one per inline
sweep cell, and a pool worker opens its own. A session writes only from
the process that opened it: a forked child forgets the sessions it
inherited without emitting into them or writing their buffered lines.

When no tracer is configured, :func:`span` returns a shared no-op context
manager and :func:`emit_event` returns immediately — instrumented code
pays one ``None`` check, which is what keeps the disabled-mode overhead
unmeasurable.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Union

from .manifest import (
    MANIFEST_SUFFIX,
    build_manifest,
    git_sha,
    hardware_info,
    manifest_path_for,
    platform_info,
    write_manifest,
)
from .memory import MEMORY_SCHEMA, TOP_PATH, AllocationLedger, memory_block
from .metrics import Counter, Gauge, MetricsRegistry
from .registry import (
    RunRecord,
    RunRegistry,
    build_record,
    config_fingerprint,
    default_registry_dir,
    record_run,
)
from .report import (
    aggregate_spans,
    final_metrics,
    render_counters,
    render_epoch_table,
    render_memory,
    render_top_spans,
    render_trace_report,
    sparkline,
)
from .rss import current_rss_bytes, peak_rss_bytes
from .spans import NOOP_SPAN, Span, Tracer


class _Session:
    """One tracer, its allocation ledger, and the engine hooks bound to both.

    The op hook feeds ``ops.<op>.{calls,flops,bytes}`` counters and the
    open spans' ``alloc_bytes``; the allocation hook accounts each engine
    array under the current span-tree path and feeds ``mem_bytes`` /
    ``mem_peak_bytes``.
    """

    __slots__ = ("tracer", "ledger", "op_hook", "alloc_hook")

    def __init__(self, trace_path: Optional[str]):
        tracer = self.tracer = Tracer(trace_path)
        ledger = self.ledger = AllocationLedger()
        metrics = tracer.metrics

        def op_hook(op: str, flops: int, nbytes: int) -> None:
            metrics.counter(f"ops.{op}.calls").inc()
            metrics.counter(f"ops.{op}.flops").inc(flops)
            metrics.counter(f"ops.{op}.bytes").inc(nbytes)
            tracer.add_alloc_bytes(nbytes)

        def alloc_hook(nbytes: int, array, op: str) -> None:
            path = tracer.current_path() or TOP_PATH
            ledger.on_alloc(nbytes, array, op, path)
            tracer.add_mem_bytes(nbytes, ledger.live_bytes)

        self.op_hook = op_hook
        self.alloc_hook = alloc_hook


#: Open sessions, innermost last. Only the innermost one records; the
#: ones below it are suspended until it closes (see :func:`shard_capture`).
_sessions: List[_Session] = []
#: The innermost session's tracer: the one ``None`` check the hot path pays.
_tracer: Optional[Tracer] = None
_config_lock = threading.RLock()


def _rehook(old: Optional[_Session], new: Optional[_Session]) -> None:
    """Move the engine's op and allocation hooks from ``old`` to ``new``.

    Either may be ``None``. Only ``old``'s own allocation hook is removed,
    so another subscriber (a ``DeviceModel.step``) is never displaced.
    """
    from ..autodiff import tensor

    if old is not None:
        tensor.remove_allocation_hook(old.alloc_hook)
    tensor.set_op_hook(new.op_hook if new is not None else None)
    if new is not None:
        tensor.add_allocation_hook(new.alloc_hook)


def _open(trace_path: Optional[str] = None) -> Tracer:
    """Open a session on top of any open one and attach the engine hooks
    to it; returns its tracer."""
    global _tracer
    with _config_lock:
        session = _Session(trace_path)
        _rehook(_sessions[-1] if _sessions else None, session)
        _sessions.append(session)
        _tracer = session.tracer
        return _tracer


def _close() -> Dict:
    """Close the innermost session and return its shard.

    Detaches its hooks (re-attaching the session below, if any), emits the
    ledger's ``memory`` summary and the ``metrics`` snapshot, and closes
    the trace file. The shard, ``{"events", "metrics"}``, is what
    :func:`fold_shard` takes and what a pool worker ships back.
    """
    global _tracer
    with _config_lock:
        if not _sessions:
            return {"events": [], "metrics": {}}
        session = _sessions.pop()
        below = _sessions[-1] if _sessions else None
        _rehook(session, below)
        _tracer = below.tracer if below is not None else None
    tracer, ledger = session.tracer, session.ledger
    # The memory summary rides the ordinary event stream, so a shard
    # ships it for free and fold_shard merges it.
    tracer.emit({"type": "memory", "memory": ledger.summary()})
    ledger.close()
    snapshot = tracer.metrics.snapshot()
    if snapshot:
        tracer.emit({"type": "metrics", "metrics": snapshot})
    tracer.close()
    return {"events": tracer.events, "metrics": snapshot}


def _drop_after_fork() -> None:
    """In a forked child: forget every inherited session.

    The child emits nothing into them and writes none of their buffered
    lines: it releases its copy of each trace file's descriptor, and the
    parent alone writes its trace. Their ledgers stop accounting, so a
    late finalizer never waits on a lock that a parent thread held at the
    fork.
    """
    global _tracer, _sessions, _config_lock
    _config_lock = threading.RLock()
    if _sessions:
        _rehook(_sessions[-1], None)
    for session in _sessions:
        session.tracer.discard()
        session.ledger.close()
    _sessions, _tracer = [], None


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere nothing forks
    os.register_at_fork(after_in_child=_drop_after_fork)


def configure(trace_path: Optional[str] = None) -> Tracer:
    """Enable telemetry process-wide; returns the active tracer.

    Events always accumulate in memory (so :func:`shutdown` can hand them
    to the report renderer); ``trace_path`` additionally streams them to
    a JSONL file. Re-configuring closes the active session first. An
    :class:`AllocationLedger` always runs alongside the tracer (live/peak
    accounting is a handful of dict updates per allocation).
    """
    with _config_lock:
        _close()
        return _open(trace_path)


def shutdown() -> List[Dict]:
    """Disable telemetry; close the trace file and return the events."""
    return _close()["events"]


def enabled() -> bool:
    """Whether a tracer is currently active."""
    return _tracer is not None


def get_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` while telemetry is disabled."""
    return _tracer.metrics if _tracer is not None else None


def get_ledger() -> Optional[AllocationLedger]:
    """The active allocation ledger, or ``None`` while disabled."""
    return _sessions[-1].ledger if _sessions else None


def span(name: str, **attrs) -> Union[Span, "object"]:
    """Open a span on the active tracer; a shared no-op when disabled."""
    if _tracer is None:
        return NOOP_SPAN
    return _tracer.span(name, **attrs)


def emit_event(event_type: str, **fields) -> None:
    """Emit a free-form event (no-op while disabled)."""
    if _tracer is not None:
        _tracer.emit_event(event_type, **fields)


def fold_shard(events: Optional[List[Dict]] = None,
               metrics_state: Optional[Dict] = None,
               label: Optional[str] = None) -> None:
    """Fold one cell's shard into the active session (no-op while disabled).

    A sweep cell (:mod:`repro.runtime.pool`) runs in a session of its own
    and returns its shard. ``metrics_state`` (a
    :meth:`MetricsRegistry.snapshot` dict) merges via
    :meth:`MetricsRegistry.merge_from`: counters add, gauges keep the max
    peak. ``events`` are re-emitted with parent-unique span ids, the
    cell's root spans re-parented under the current span, depths shifted
    and (when given) a ``shard`` label attached, so the merged trace reads
    as one run. The cell's ``metrics`` event is dropped (the session emits
    its own merged snapshot at close) and its ``memory`` event merges into
    the session's ledger (:meth:`AllocationLedger.merge_summary`), so
    pooled allocation totals equal serial ones.

    Fold shards in deterministic (cell-list) order: counter merging is
    commutative, but trace event order — and therefore the bytes of the
    trace file — is whatever order shards were folded in.
    """
    if _tracer is None:
        return
    if metrics_state:
        _tracer.metrics.merge_from(
            MetricsRegistry.from_snapshot(metrics_state))
    if not events:
        return
    current = _tracer.current_span()
    base_parent = current.span_id if current is not None else None
    base_depth = current.depth + 1 if current is not None else 0
    id_map: Dict[int, int] = {}
    for event in events:
        if event.get("type") == "span" and event.get("id") is not None:
            id_map[event["id"]] = _tracer.next_span_id()
    for event in events:
        if event.get("type") == "metrics":
            continue
        if event.get("type") == "memory":
            _sessions[-1].ledger.merge_summary(event.get("memory") or {})
            continue
        event = dict(event)
        if event.get("type") == "span":
            event["id"] = id_map.get(event.get("id"), event.get("id"))
            parent = event.get("parent")
            event["parent"] = id_map.get(parent, base_parent)
            event["depth"] = int(event.get("depth", 0)) + base_depth
            if label is not None:
                attrs = dict(event.get("attrs") or {})
                attrs.setdefault("shard", label)
                event["attrs"] = attrs
        elif event.get("span") in id_map:
            event["span"] = id_map[event["span"]]
        _tracer.emit(event)


@contextmanager
def shard_capture(shard: Dict):
    """Run the body in a session of its own; capture its shard.

    The inline counterpart of a pool worker's session
    (:func:`repro.runtime.pool._run_cell`): the body's spans and metrics
    land in a nested session instead of the active one, and on exit
    ``shard`` holds that session's ``events`` and ``metrics`` snapshot,
    exactly what :func:`fold_shard` accepts and what the artifact store
    (:mod:`repro.runtime.artifacts`) persists next to a cell's value. The
    suspended session (and the engine hooks bound to it) is restored even
    if the body raises; while telemetry is disabled the body runs
    unchanged and ``shard`` stays empty.
    """
    if _tracer is None:
        yield shard
        return
    _open()
    try:
        yield shard
    finally:
        shard.update(_close())


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry (no-op while disabled)."""
    if _tracer is not None:
        _tracer.metrics.gauge(name).set(value)


def inc_counter(name: str, amount: float = 1) -> None:
    """Increment a counter on the active registry (no-op while disabled)."""
    if _tracer is not None:
        _tracer.metrics.counter(name).inc(amount)


__all__ = [
    # lifecycle
    "configure",
    "shutdown",
    "enabled",
    "get_metrics",
    "get_ledger",
    # recording
    "span",
    "emit_event",
    "fold_shard",
    "shard_capture",
    "set_gauge",
    "inc_counter",
    "NOOP_SPAN",
    # building blocks
    "Span",
    "Tracer",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "AllocationLedger",
    "MEMORY_SCHEMA",
    "memory_block",
    "current_rss_bytes",
    "peak_rss_bytes",
    # manifests
    "build_manifest",
    "write_manifest",
    "manifest_path_for",
    "git_sha",
    "platform_info",
    "hardware_info",
    "MANIFEST_SUFFIX",
    # reporting
    "render_trace_report",
    "render_top_spans",
    "render_epoch_table",
    "render_counters",
    "render_memory",
    "aggregate_spans",
    "final_metrics",
    "sparkline",
    # run registry
    "RunRecord",
    "RunRegistry",
    "build_record",
    "config_fingerprint",
    "default_registry_dir",
    "record_run",
]
