"""Result rendering: experiment rows as monospace tables and pivots.

Bench output reads side by side with the published tables; the Table
5/10 score cell (``86.58±1.96``) comes from
:meth:`repro.tasks.node_classification.SeedSummary.cell`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..telemetry.report import render_trace_report, sparkline

__all__ = [
    "render_table",
    "render_run_telemetry",
    "render_trace_report",
    "sparkline",
    "pivot",
]


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as a monospace table (markdown-pipe style)."""
    if not rows:
        return f"{title or 'table'}: (no rows)"
    columns = list(columns or rows[0].keys())
    widths = {c: len(str(c)) for c in columns}
    body: List[List[str]] = []
    for row in rows:
        rendered = [_render_value(row.get(c, "")) for c in columns]
        body.append(rendered)
        for column, value in zip(columns, rendered):
            widths[column] = max(widths[column], len(value))
    lines = []
    if title:
        lines.append(f"== {title} ==")
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for rendered in body:
        lines.append(" | ".join(v.ljust(widths[c]) for v, c in zip(rendered, columns)))
    return "\n".join(lines)


def _render_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_run_telemetry(events: Sequence[Mapping], top: int = 8) -> str:
    """Trace summary appended to CLI output when tracing is enabled.

    Thin composition over :func:`repro.telemetry.report.render_trace_report`
    (top spans, per-epoch sparklines, op counters) with a bench-style
    heading, so the trace report reads like the result tables above it.
    """
    return "== telemetry ==\n" + render_trace_report(events, top=top)


def pivot(
    rows: Sequence[Mapping[str, object]],
    index: str,
    column: str,
    value: str,
) -> List[Dict[str, object]]:
    """Pivot long-form rows into a wide table (filters × datasets)."""
    column_values: List[object] = []
    for row in rows:
        if row[column] not in column_values:
            column_values.append(row[column])
    table: Dict[object, Dict[str, object]] = {}
    order: List[object] = []
    for row in rows:
        key = row[index]
        if key not in table:
            table[key] = {index: key}
            order.append(key)
        table[key][str(row[column])] = row[value]
    return [table[key] for key in order]
