"""Comparing experiment runs: regression tracking for benchmark sweeps.

Two comparison modes:

- **File mode** (:func:`compare_files`): given two saved experiment files
  (``bench.io.save_rows`` output — e.g. a baseline run on main and a
  candidate run on a branch), align their rows on key columns and report
  per-metric deltas, flagging regressions beyond a tolerance.
- **Registry mode** (:func:`compare_registry`): no file paths at all —
  resolve the two most recent runs of a config fingerprint from the run
  registry (:mod:`repro.telemetry.registry`) and diff their stage
  timings, op counters, and result summaries. This is what ``python -m
  repro.bench compare --registry <config>`` runs, and what makes
  efficiency claims trackable longitudinally across commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ReproError

#: Columns that identify a row across runs, tried in this order.
DEFAULT_KEY_COLUMNS = ("dataset", "filter", "scheme", "model", "backend",
                       "K", "rho", "seed", "signal", "keep", "platform")

#: Metrics where larger is better (everything else: smaller is better).
HIGHER_IS_BETTER = ("accuracy", "auc", "mean", "score", "r2", "overall",
                    "test", "valid", "relative_accuracy",
                    "cluster_separation")

#: Relative worsening beyond which file mode reports a regression.
TOLERANCE = 0.05


@dataclass
class MetricDelta:
    """Change of one metric on one aligned row pair."""

    key: Tuple
    metric: str
    baseline: float
    candidate: float

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline

    @property
    def relative(self) -> float:
        return self.delta / abs(self.baseline) if self.baseline else np.inf

    def is_regression(self, tolerance: float) -> bool:
        """Did the candidate get worse by more than ``tolerance`` (relative)?"""
        higher_better = any(self.metric.endswith(m) or self.metric == m
                            for m in HIGHER_IS_BETTER)
        worsening = -self.relative if higher_better else self.relative
        return worsening > tolerance


@dataclass
class Comparison:
    """Alignment + deltas between two experiment runs."""

    matched: int
    baseline_only: List[Tuple]
    candidate_only: List[Tuple]
    deltas: List[MetricDelta] = field(default_factory=list)

    def regressions(self, tolerance: float = TOLERANCE) -> List[MetricDelta]:
        return [d for d in self.deltas if d.is_regression(tolerance)]

    def summary_rows(self) -> List[Dict]:
        """Long-form rows for :func:`repro.bench.render_table`."""
        return [
            {
                "key": " / ".join(str(v) for v in d.key),
                "metric": d.metric,
                "baseline": d.baseline,
                "candidate": d.candidate,
                "delta": d.delta,
            }
            for d in self.deltas
        ]


def _row_key(row: Mapping, key_columns: Sequence[str]) -> Tuple:
    return tuple(row[c] for c in key_columns if c in row)


def compare_rows(
    baseline: Sequence[Mapping],
    candidate: Sequence[Mapping],
    key_columns: Optional[Sequence[str]] = None,
    metrics: Optional[Sequence[str]] = None,
) -> Comparison:
    """Align two row sets on key columns and diff their numeric metrics.

    Parameters
    ----------
    key_columns:
        Identity columns; defaults to whichever of
        :data:`DEFAULT_KEY_COLUMNS` appear in the rows.
    metrics:
        Numeric columns to diff; defaults to all shared numeric non-key
        columns.
    """
    if not baseline or not candidate:
        raise ReproError("both runs need at least one row to compare")
    keys = list(key_columns or
                [c for c in DEFAULT_KEY_COLUMNS if c in baseline[0]])
    if not keys:
        raise ReproError(
            "no key columns found; pass key_columns= explicitly")

    baseline_index = {_row_key(r, keys): r for r in baseline}
    candidate_index = {_row_key(r, keys): r for r in candidate}
    for name, rows, index in (("baseline", baseline, baseline_index),
                              ("candidate", candidate, candidate_index)):
        if len(index) != len(rows):
            raise ReproError(f"key columns {keys} do not uniquely identify "
                             f"{name} rows")

    shared = [k for k in baseline_index if k in candidate_index]
    comparison = Comparison(
        matched=len(shared),
        baseline_only=sorted(set(baseline_index) - set(candidate_index)),
        candidate_only=sorted(set(candidate_index) - set(baseline_index)),
    )

    if metrics is None:
        sample = baseline_index[shared[0]] if shared else {}
        metrics = [
            name for name, value in sample.items()
            if name not in keys and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ]
    for key in shared:
        base_row, cand_row = baseline_index[key], candidate_index[key]
        for metric in metrics:
            if metric not in base_row or metric not in cand_row:
                continue
            base_value, cand_value = base_row[metric], cand_row[metric]
            if not _is_number(base_value) or not _is_number(cand_value):
                continue
            comparison.deltas.append(
                MetricDelta(key, metric, float(base_value), float(cand_value)))
    return comparison


def compare_files(baseline_path, candidate_path, **kwargs) -> Comparison:
    """File-level convenience wrapper over :func:`compare_rows`."""
    from .io import load_rows

    return compare_rows(load_rows(baseline_path), load_rows(candidate_path),
                        **kwargs)


#: Per-stage fields diffed by the registry comparison (inclusive time,
#: exclusive time, host RAM growth, and the allocation ledger's
#: accounted bytes — inclusive, exclusive, and the in-stage live peak —
#: matching the paper's stage view).
REGISTRY_STAGE_FIELDS = ("seconds", "self_seconds", "ram_delta_bytes",
                         "mem_bytes", "self_mem_bytes", "mem_peak_bytes")


def registry_delta_rows(baseline, candidate,
                        stage_fields: Sequence[str] = REGISTRY_STAGE_FIELDS,
                        ) -> List[Dict]:
    """Long-form delta rows between two registry run records.

    One row per (stage × field), changed counter, and summary column:
    ``{"metric", "baseline", "candidate", "delta", "rel"}`` — ready for
    :func:`repro.bench.render_table`.
    """
    rows: List[Dict] = []

    def add(metric: str, base, cand) -> None:
        if not _is_number(base) or not _is_number(cand):
            return
        base, cand = float(base), float(cand)
        if base:
            rel = (cand - base) / abs(base)
        else:
            rel = 0.0 if cand == base else np.inf
        rows.append({"metric": metric, "baseline": base, "candidate": cand,
                     "delta": cand - base, "rel": rel})

    for stage in sorted(set(baseline.stages) | set(candidate.stages)):
        base_entry = baseline.stages.get(stage, {})
        cand_entry = candidate.stages.get(stage, {})
        for field_name in stage_fields:
            add(f"stages.{stage}.{field_name}",
                base_entry.get(field_name), cand_entry.get(field_name))

    base_counters = (baseline.metrics or {}).get("counters") or {}
    cand_counters = (candidate.metrics or {}).get("counters") or {}
    for name in sorted(set(base_counters) | set(cand_counters)):
        base_v, cand_v = base_counters.get(name, 0), cand_counters.get(name, 0)
        if base_v != cand_v:
            add(f"counters.{name}", base_v, cand_v)

    for name in sorted(set(baseline.summary or {}) | set(candidate.summary or {})):
        add(f"summary.{name}", (baseline.summary or {}).get(name),
            (candidate.summary or {}).get(name))

    # Memory-observatory scalars (schema v5); absent blocks diff as nothing.
    base_memory = getattr(baseline, "memory", None) or {}
    cand_memory = getattr(candidate, "memory", None) or {}
    for name in sorted(set(base_memory) | set(cand_memory)):
        add(f"memory.{name}", base_memory.get(name), cand_memory.get(name))
    return rows


def compare_registry(spec: str, registry_dir=None,
                     stage_fields: Sequence[str] = REGISTRY_STAGE_FIELDS):
    """Resolve + diff the two most recent runs of one config fingerprint.

    Returns ``(baseline_record, candidate_record, delta_rows)``; raises
    :class:`~repro.errors.ReproError` when the registry holds fewer than
    two runs matching ``spec`` (a fingerprint prefix or experiment name).
    """
    from ..telemetry.registry import RunRegistry

    registry = RunRegistry(registry_dir)
    baseline, candidate = registry.resolve_pair(spec)
    return baseline, candidate, registry_delta_rows(
        baseline, candidate, stage_fields=stage_fields)


def registry_history(spec: str, count: int = 10, registry_dir=None):
    """Cross-run trend report: one sparkline row per headline metric.

    Resolves ``spec`` (fingerprint prefix or experiment name) to one
    config's run history, then renders each stage's inclusive seconds and
    each numeric summary column of the most recent run over that config's
    last ``count`` runs via :meth:`RunRegistry.history`. Returns
    ``(latest_record, rows)`` where each row is ``{"metric", "runs",
    "min", "max", "last", "trend"}`` — the trend a unicode sparkline —
    ready for :func:`repro.bench.render_table`.
    """
    from ..telemetry.registry import RunRegistry
    from ..telemetry.report import sparkline

    if count < 1:
        raise ReproError(f"history length must be >= 1, got {count}")
    registry = RunRegistry(registry_dir)
    records = registry.resolve(spec)
    if not records:
        known = ", ".join(sorted(registry.fingerprints())) or "(empty)"
        raise ReproError(f"registry at {registry.path} holds no runs "
                         f"matching {spec!r}. Known configs: {known}")
    latest = records[-1]
    fingerprint = latest.config_fingerprint

    metrics = [f"stages.{stage}.seconds" for stage in sorted(latest.stages)]
    metrics += [f"summary.{name}" for name in sorted(latest.summary or {})
                if _is_number((latest.summary or {}).get(name))]

    rows: List[Dict] = []
    for metric in metrics:
        series = registry.history(metric, fingerprint)[-count:]
        if not series:
            continue
        values = [value for _, value in series]
        rows.append({
            "metric": metric,
            "runs": len(values),
            "min": min(values),
            "max": max(values),
            "last": values[-1],
            "trend": sparkline(values),
        })
    return latest, rows


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) \
        and not isinstance(value, bool) and np.isfinite(value)
