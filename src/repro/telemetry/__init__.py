"""repro.telemetry — spans, metrics, and run manifests for the benchmark.

The paper's contribution is *measurement*; this package is the instrument.
It provides three connected layers:

- **Spans** (:mod:`.spans`): a hierarchical, thread-safe tracer. Trainers
  and the profiler open nested spans (``precompute → train → epoch →
  forward/backward``) whose wall time, allocated bytes, and RAM growth
  land on an event sink.
- **Metrics** (:mod:`.metrics`): counters and gauges fed by op hooks in
  :mod:`repro.autodiff` (matmul/spmm FLOPs and bytes) and by
  the :mod:`repro.runtime` cache/planner layers (``cache.*`` memo
  traffic; ``plan.terms.{hit,miss,evict}`` / ``plan.chains.*`` /
  ``plan.spmm_avoided`` basis-term store traffic).
- **Artifacts** (:mod:`.sinks`, :mod:`.manifest`, :mod:`.report`): a JSONL
  trace file, a deterministic run manifest written next to every result
  file, and a terminal report (top spans with inclusive *and* exclusive
  cost, per-epoch sparklines, cross-run trace diffs).
- **History** (:mod:`.registry`): an append-only run registry indexing
  every bench invocation by config fingerprint, with query APIs
  (``latest`` / ``by_config`` / ``history``) behind ``compare --registry``
  and ``compare --history``. Regressions are gated by the perf harness
  (``benchmarks/perf/run.py``), not here.

Module-level usage — the pattern every instrumented call site follows::

    from repro import telemetry

    telemetry.configure(trace_path="run.jsonl")   # None → memory only
    with telemetry.span("precompute", filter="ppr"):
        ...
    telemetry.emit_event("epoch", epoch=0, loss=1.2)
    events = telemetry.shutdown()                 # flush + detach hooks

When no tracer is configured, :func:`span` returns a shared no-op context
manager and :func:`emit_event` returns immediately — instrumented code
pays one ``None`` check, which is what keeps the disabled-mode overhead
unmeasurable.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

from .hooks import (
    install_alloc_hooks,
    install_op_hooks,
    uninstall_alloc_hooks,
    uninstall_op_hooks,
)
from .manifest import (
    MANIFEST_SUFFIX,
    build_manifest,
    dataset_fingerprint,
    git_sha,
    hardware_info,
    manifest_path_for,
    platform_info,
    read_manifest,
    write_manifest,
)
from .memory import MEMORY_SCHEMA, AllocationLedger, memory_block
from .metrics import Counter, Gauge, MetricsRegistry
from .registry import (
    RunRecord,
    RunRegistry,
    build_record,
    config_fingerprint,
    default_registry_dir,
    metric_value,
    record_run,
)
from .report import (
    aggregate_spans,
    final_memory,
    final_metrics,
    render_counters,
    render_epoch_table,
    render_memory,
    render_run_diff,
    render_top_spans,
    render_trace_report,
    sparkline,
)
from .rss import current_rss_bytes, peak_rss_bytes
from .sinks import (
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
    TeeSink,
    load_events,
)
from .spans import NOOP_SPAN, Span, Tracer

_tracer: Optional[Tracer] = None
_memory: Optional[MemorySink] = None
_ledger: Optional[AllocationLedger] = None
_config_lock = threading.Lock()


def configure(trace_path: Optional[str] = None,
              sink: Optional[EventSink] = None,
              metrics: Optional[MetricsRegistry] = None) -> Tracer:
    """Enable telemetry process-wide; returns the active tracer.

    Events always accumulate in an in-process :class:`MemorySink` (so
    :func:`shutdown` can hand them to the report renderer); ``trace_path``
    additionally streams them to a JSONL file. An explicit ``sink``
    replaces the memory buffer entirely. Re-configuring tears down any
    previous tracer first.

    An :class:`AllocationLedger` is always installed alongside the tracer
    (live/peak accounting is a handful of dict updates per allocation).
    """
    global _tracer, _memory, _ledger
    with _config_lock:
        if _tracer is not None:
            _shutdown_locked()
        if sink is not None:
            _memory = None
            active_sink = sink
        else:
            _memory = MemorySink()
            if trace_path is not None:
                active_sink = TeeSink(_memory, JsonlSink(trace_path))
            else:
                active_sink = _memory
        _tracer = Tracer(sink=active_sink, metrics=metrics)
        _ledger = AllocationLedger()
        install_op_hooks(_tracer)
        install_alloc_hooks(_tracer, _ledger)
        return _tracer


def _shutdown_locked() -> List[Dict]:
    global _tracer, _memory, _ledger
    events: List[Dict] = []
    if _tracer is not None:
        uninstall_op_hooks()
        uninstall_alloc_hooks()
        if _ledger is not None:
            # The run's memory summary rides the ordinary event stream, so
            # worker shards ship it for free and fold_shard can merge it.
            _tracer.sink.emit({"type": "memory",
                               "memory": _ledger.summary()})
            _ledger.close()
        _tracer.close()
        if _memory is not None:
            events = _memory.events
    _tracer = None
    _memory = None
    _ledger = None
    return events


def shutdown() -> List[Dict]:
    """Disable telemetry; flush sinks and return the buffered events."""
    with _config_lock:
        return _shutdown_locked()


def enabled() -> bool:
    """Whether a tracer is currently active."""
    return _tracer is not None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` while telemetry is disabled."""
    return _tracer


def get_metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` while telemetry is disabled."""
    return _tracer.metrics if _tracer is not None else None


def get_ledger() -> Optional[AllocationLedger]:
    """The active allocation ledger, or ``None`` while disabled."""
    return _ledger


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
    """Fold one worker shard into the active run (no-op while disabled).

    A sweep worker (:mod:`repro.runtime.pool`) runs under its own tracer
    and registry; this folds what it shipped back into the parent's:

    - ``metrics_state`` (a :meth:`MetricsRegistry.to_state` dict) merges
      via :meth:`MetricsRegistry.merge_from` — counters add, gauges keep
      the max peak.
    - ``events`` are re-emitted onto the parent sink with span ids
      remapped to parent-unique ids, the worker's root spans re-parented
      under the parent's current span, depths shifted accordingly, and
      (when given) a ``shard`` label attached — the merged trace reads as
      one coherent run. The worker's final ``metrics`` snapshot event is
      dropped: the parent emits its own merged snapshot at close. The
      worker's final ``memory`` event (its allocation-ledger summary) is
      likewise not re-emitted — it merges into the parent's ledger
      (:meth:`AllocationLedger.merge_summary`: allocation totals add,
      peaks max with attribution adopted), so the parent's single
      shutdown summary carries pooled totals equal to serial totals.

    Fold shards in deterministic (cell-list) order: counter merging is
    commutative, but trace event order — and therefore the bytes of the
    trace file — is whatever order shards were folded in.
    """
    if _tracer is None:
        return
    if metrics_state:
        _tracer.metrics.merge_from(MetricsRegistry.from_state(metrics_state))
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
            if _ledger is not None:
                _ledger.merge_summary(event.get("memory") or {})
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
        _tracer.sink.emit(event)


from contextlib import contextmanager


@contextmanager
def shard_capture(shard: Dict):
    """Run the body under a fresh, isolated tracer; capture its shard.

    The inline-mode counterpart of a pool worker's from-scratch telemetry
    (:func:`repro.runtime.pool._cell_entry`): the body's spans and
    metrics land in a temporary tracer instead of the parent's, and on
    exit ``shard`` is populated with ``events`` (the captured span
    events) and ``metrics`` (a :meth:`MetricsRegistry.to_state` dict) —
    exactly what :func:`fold_shard` accepts and what the artifact store
    (:mod:`repro.runtime.artifacts`) persists next to a cell's value, so
    a cell's shard has one shape whether it ran in a worker process or
    inline. The parent tracer (and the engine op hooks bound to it) is
    restored afterwards even if the body raises; while telemetry is
    disabled the body runs unchanged and ``shard`` stays empty.
    """
    global _tracer, _memory, _ledger
    with _config_lock:
        parent, parent_memory, parent_ledger = _tracer, _memory, _ledger
        if parent is not None:
            uninstall_op_hooks()
            uninstall_alloc_hooks()
            _memory = MemorySink()
            _tracer = Tracer(sink=_memory)
            _ledger = AllocationLedger()
            install_op_hooks(_tracer)
            install_alloc_hooks(_tracer, _ledger)
    if parent is None:
        yield shard
        return
    try:
        yield shard
    finally:
        with _config_lock:
            child, child_memory, child_ledger = _tracer, _memory, _ledger
            if child is not None:
                uninstall_op_hooks()
                uninstall_alloc_hooks()
                shard["metrics"] = child.metrics.to_state()
                if child_ledger is not None:
                    # Same shape a pool worker ships: the cell's ledger
                    # summary rides the shard events for fold_shard.
                    child.sink.emit({"type": "memory",
                                     "memory": child_ledger.summary()})
                    child_ledger.close()
                child.close()
                shard["events"] = child_memory.events if child_memory else []
            _tracer, _memory, _ledger = parent, parent_memory, parent_ledger
            install_op_hooks(parent)
            if parent_ledger is not None:
                install_alloc_hooks(parent, parent_ledger)


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
    "get_tracer",
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
    "EventSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "NullSink",
    "load_events",
    # manifests
    "build_manifest",
    "write_manifest",
    "read_manifest",
    "manifest_path_for",
    "dataset_fingerprint",
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
    "render_run_diff",
    "aggregate_spans",
    "final_metrics",
    "final_memory",
    "sparkline",
    # run registry
    "RunRecord",
    "RunRegistry",
    "build_record",
    "config_fingerprint",
    "default_registry_dir",
    "metric_value",
    "record_run",
    # hooks
    "install_op_hooks",
    "uninstall_op_hooks",
    "install_alloc_hooks",
    "uninstall_alloc_hooks",
]
