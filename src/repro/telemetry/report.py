"""Text rendering of traces: top spans, per-epoch sparklines, counters.

Turns a list of trace events (from a :class:`~repro.telemetry.sinks.MemorySink`
buffer or a reloaded JSONL file) into the compact terminal
report printed by ``python -m repro.bench --trace``. Kept free of imports
from :mod:`repro.bench` so the bench layer can build on it without cycles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode block sparkline of a numeric series, resampled to 32 marks."""
    width = 32
    series = [float(v) for v in values if v is not None]
    if not series:
        return ""
    if len(series) > width:
        stride = len(series) / width
        series = [series[int(i * stride)] for i in range(width)]
    low, high = min(series), max(series)
    span = high - low
    if span <= 0:
        return SPARK_CHARS[0] * len(series)
    top = len(SPARK_CHARS) - 1
    return "".join(SPARK_CHARS[int((v - low) / span * top)] for v in series)


def _table(headers: List[str], rows: List[List[str]], title: str) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"-- {title} --"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _format_bytes(nbytes: float) -> str:
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GiB"


def aggregate_spans(events: Iterable[Mapping]) -> Dict[str, Dict]:
    """Fold span events into per-name totals, inclusive *and* exclusive.

    Inclusive values (``seconds``, ``alloc_bytes``, ``mem_bytes``) count
    everything that happened while a span was open, children included —
    the tracer attributes allocation to every open span. The exclusive
    view (``self_seconds``, ``self_alloc_bytes``, ``self_mem_bytes``)
    subtracts each span's direct children, attributing cost to the span
    that actually incurred it; summed over a trace, the exclusive values
    telescope back to the inclusive totals of the root spans (the
    property the tests assert). ``mem_peak_bytes`` — the allocation
    ledger's live high-water mark while the span was open — aggregates as
    a max, not a sum.

    Events missing optional fields (a trace written with telemetry only
    partially enabled) are tolerated: spans without a ``name`` are
    skipped, missing numeric fields count as zero, and spans without
    ``id``/``parent`` linkage fall back to self == inclusive.
    """
    spans = [e for e in events
             if e.get("type") == "span" and e.get("name") is not None]
    # Per-parent child sums, for the exclusive view.
    child_seconds: Dict[object, float] = {}
    child_bytes: Dict[object, float] = {}
    child_mem: Dict[object, float] = {}
    for event in spans:
        parent = event.get("parent")
        if parent is None:
            continue
        child_seconds[parent] = child_seconds.get(parent, 0.0) \
            + float(event.get("duration_s") or 0.0)
        child_bytes[parent] = child_bytes.get(parent, 0.0) \
            + float(event.get("alloc_bytes") or 0)
        child_mem[parent] = child_mem.get(parent, 0.0) \
            + float(event.get("mem_bytes") or 0)
    stats: Dict[str, Dict] = {}
    for event in spans:
        entry = stats.setdefault(event["name"], {
            "calls": 0, "seconds": 0.0, "max_seconds": 0.0,
            "self_seconds": 0.0, "alloc_bytes": 0, "self_alloc_bytes": 0,
            "ram_delta_bytes": 0, "mem_bytes": 0, "self_mem_bytes": 0,
            "mem_peak_bytes": 0,
        })
        duration = float(event.get("duration_s") or 0.0)
        alloc = float(event.get("alloc_bytes") or 0)
        mem = float(event.get("mem_bytes") or 0)
        span_id = event.get("id")
        entry["calls"] += 1
        entry["seconds"] += duration
        entry["max_seconds"] = max(entry["max_seconds"], duration)
        entry["self_seconds"] += duration - child_seconds.get(span_id, 0.0)
        entry["alloc_bytes"] += alloc
        entry["self_alloc_bytes"] += alloc - child_bytes.get(span_id, 0.0)
        entry["ram_delta_bytes"] += float(event.get("ram_delta_bytes") or 0)
        entry["mem_bytes"] += mem
        entry["self_mem_bytes"] += mem - child_mem.get(span_id, 0.0)
        entry["mem_peak_bytes"] = max(entry["mem_peak_bytes"],
                                      float(event.get("mem_peak_bytes") or 0))
    return stats


def render_top_spans(events: Iterable[Mapping], top: int = 10) -> str:
    """The hot list: span names ranked by *exclusive* (self) wall time."""
    stats = aggregate_spans(events)
    if not stats:
        return "-- top spans --\n(no spans recorded)"
    ranked = sorted(stats.items(), key=lambda kv: kv[1]["self_seconds"],
                    reverse=True)[:top]
    rows = []
    for name, entry in ranked:
        mean = entry["seconds"] / entry["calls"] if entry["calls"] else 0.0
        rows.append([
            name,
            str(entry["calls"]),
            _format_seconds(entry["seconds"]),
            _format_seconds(entry["self_seconds"]),
            _format_seconds(mean),
            _format_seconds(entry["max_seconds"]),
            _format_bytes(entry["alloc_bytes"]),
            _format_bytes(entry["self_alloc_bytes"]),
        ])
    return _table(["span", "calls", "total", "self", "mean", "max",
                   "alloc", "self-alloc"],
                  rows, f"top {len(rows)} spans by self time")


def epoch_series(events: Iterable[Mapping], field: str) -> List[float]:
    """Extract one numeric per-epoch series from ``epoch`` events."""
    return [event[field] for event in events
            if event.get("type") == "epoch" and event.get(field) is not None]


def render_epoch_table(events: Iterable[Mapping]) -> str:
    """Per-epoch metric sparklines (loss, validation score, grad norm)."""
    fields = ("loss", "valid_score", "grad_norm")
    rows = []
    for field in fields:
        series = epoch_series(events, field)
        if not series:
            continue
        rows.append([
            field,
            str(len(series)),
            f"{series[0]:.4g}",
            f"{series[-1]:.4g}",
            f"{min(series):.4g}",
            f"{max(series):.4g}",
            sparkline(series),
        ])
    if not rows:
        return "-- per-epoch metrics --\n(no epoch events recorded)"
    return _table(["metric", "epochs", "first", "last", "min", "max", "trend"],
                  rows, "per-epoch metrics")


def final_metrics(events: Iterable[Mapping]) -> Dict:
    """The last metrics snapshot embedded in a trace (``{}`` when absent).

    Tolerates partially-written metrics events (``metrics`` key missing or
    null, a non-mapping payload) by skipping them.
    """
    snapshot: Dict = {}
    for event in events:
        if event.get("type") == "metrics":
            payload = event.get("metrics")
            if isinstance(payload, Mapping):
                snapshot = dict(payload)
    return snapshot


def final_memory(events: Iterable[Mapping]) -> Dict:
    """The last allocation-ledger summary in a trace (``{}`` when absent).

    The ledger emits one ``{"type": "memory", "memory": {...}}`` event at
    telemetry shutdown (worker shards' summaries having been folded into
    it); runs recorded before the memory observatory existed simply have
    none.
    """
    summary: Dict = {}
    for event in events:
        if event.get("type") == "memory":
            payload = event.get("memory")
            if isinstance(payload, Mapping):
                summary = dict(payload)
    return summary


def render_memory(events: Iterable[Mapping]) -> str:
    """The memory section: ledger totals, peak attribution, top five arrays.

    Renders the accounted live/peak/total bytes, where the high-water
    mark sat in the span tree and which op families held it, the largest
    single allocations, and the accounting-coverage view (ledger vs
    measured RSS, DeviceModel vs ledger when present).
    """
    mem = final_memory(events)
    if not mem:
        return "-- memory --\n(no allocation ledger recorded)"
    rows = [
        ["peak accounted", _format_bytes(mem.get("peak_bytes") or 0)],
        ["live at shutdown", _format_bytes(mem.get("live_bytes") or 0)],
        ["total allocated", _format_bytes(mem.get("total_alloc_bytes") or 0)
         + f"  ({mem.get('alloc_count') or 0:,} arrays)"],
        ["total freed", _format_bytes(mem.get("total_freed_bytes") or 0)
         + f"  ({mem.get('free_count') or 0:,} arrays)"],
        ["rss peak", _format_bytes(mem.get("rss_peak_bytes") or 0)],
    ]
    coverage = mem.get("coverage") or {}
    if coverage.get("ledger_vs_rss") is not None:
        rows.append(["ledger/rss coverage",
                     f"{coverage['ledger_vs_rss']:.1%}"])
    if mem.get("device_peak_bytes"):
        rows.append(["device peak",
                     _format_bytes(mem["device_peak_bytes"])])
    attribution = mem.get("peak_attribution") or {}
    if attribution.get("path") or attribution.get("op"):
        rows.append(["peak set by",
                     f"{attribution.get('op') or '?'} @ "
                     f"{attribution.get('path') or '(top)'}"])
    holders = attribution.get("live_by_path") or {}
    for path, nbytes in sorted(holders.items(),
                               key=lambda kv: -kv[1])[:5]:
        rows.append([f"  at peak: {path}", _format_bytes(nbytes)])
    sections = [_table(["memory", "value"], rows, "allocation ledger")]
    top_allocs = mem.get("top_allocations") or []
    if top_allocs:
        alloc_rows = [[_format_bytes(e.get("nbytes") or 0),
                       str(e.get("op") or "?"),
                       str(e.get("path") or "(top)")]
                      for e in top_allocs[:5]]
        sections.append(_table(["size", "op", "span path"], alloc_rows,
                               "largest allocations"))
    return "\n\n".join(sections)


def render_counters(events: Iterable[Mapping]) -> str:
    """Counter table from the trace's last metrics snapshot."""
    counters = final_metrics(events).get("counters") or {}
    if not isinstance(counters, Mapping) or not counters:
        return "-- op counters --\n(no counters recorded)"
    rows = [[str(name),
             f"{value:,.0f}" if isinstance(value, (int, float))
             and not isinstance(value, bool) else str(value)]
            for name, value in sorted(counters.items())]
    return _table(["counter", "value"], rows, "op counters")


def render_trace_report(events: Sequence[Mapping], top: int = 10) -> str:
    """Full report: top spans, per-epoch sparklines, memory, op counters.

    The memory section appears only when the trace carries an allocation
    ledger summary, so reports over pre-observatory traces are unchanged.
    """
    sections = [
        render_top_spans(events, top=top),
        render_epoch_table(events),
    ]
    if final_memory(events):
        sections.append(render_memory(events))
    sections.append(render_counters(events))
    return "\n\n".join(sections)
