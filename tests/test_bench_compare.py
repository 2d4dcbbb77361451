"""Run comparison / regression tracking."""

from __future__ import annotations

import pytest

from repro.bench.compare import (
    MetricDelta,
    compare_files,
    compare_registry,
    compare_rows,
    registry_delta_rows,
)
from repro.bench.io import save_rows
from repro.errors import ReproError

BASE = [
    {"dataset": "cora", "filter": "ppr", "mean": 0.86, "train_s_per_epoch": 0.05},
    {"dataset": "cora", "filter": "hk", "mean": 0.80, "train_s_per_epoch": 0.05},
    {"dataset": "roman", "filter": "ppr", "mean": 0.50, "train_s_per_epoch": 0.06},
]


def candidate(mean_shift=0.0, time_factor=1.0, drop_last=False):
    rows = []
    for row in BASE[:-1] if drop_last else BASE:
        rows.append(dict(row, mean=row["mean"] + mean_shift,
                         train_s_per_epoch=row["train_s_per_epoch"] * time_factor))
    return rows


class TestAlignment:
    def test_full_match(self):
        comparison = compare_rows(BASE, candidate())
        assert comparison.matched == 3
        assert not comparison.baseline_only
        assert not comparison.candidate_only

    def test_missing_rows_reported(self):
        comparison = compare_rows(BASE, candidate(drop_last=True))
        assert comparison.matched == 2
        assert comparison.baseline_only == [("roman", "ppr")]

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ReproError):
            compare_rows(BASE + [BASE[0]], candidate())

    def test_duplicate_candidate_keys_rejected(self):
        # A second candidate row under one key must not silently replace
        # the first and leave the deltas covering only one of them.
        slower = dict(BASE[0], train_s_per_epoch=1.0)
        with pytest.raises(ReproError, match="candidate rows"):
            compare_rows(BASE, candidate() + [slower])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            compare_rows([], BASE)

    def test_explicit_key_columns(self):
        comparison = compare_rows(BASE, candidate(),
                                  key_columns=("dataset", "filter"))
        assert comparison.matched == 3

    def test_no_keys_rejected(self):
        with pytest.raises(ReproError):
            compare_rows([{"x": 1.0}], [{"x": 2.0}])


class TestDeltas:
    def test_identical_runs_no_regressions(self):
        comparison = compare_rows(BASE, candidate())
        assert all(d.delta == 0 for d in comparison.deltas)
        assert comparison.regressions() == []

    def test_accuracy_drop_is_regression(self):
        comparison = compare_rows(BASE, candidate(mean_shift=-0.10))
        regressions = comparison.regressions(tolerance=0.05)
        assert regressions
        assert all(d.metric == "mean" for d in regressions)

    def test_accuracy_gain_is_not(self):
        comparison = compare_rows(BASE, candidate(mean_shift=+0.10))
        assert not [d for d in comparison.regressions(0.05)
                    if d.metric == "mean"]

    def test_time_increase_is_regression(self):
        comparison = compare_rows(BASE, candidate(time_factor=2.0))
        regressions = comparison.regressions(tolerance=0.05)
        assert any(d.metric == "train_s_per_epoch" for d in regressions)

    def test_time_decrease_is_not(self):
        comparison = compare_rows(BASE, candidate(time_factor=0.5))
        assert not comparison.regressions(0.05)

    def test_tolerance_respected(self):
        comparison = compare_rows(BASE, candidate(mean_shift=-0.02))
        assert not comparison.regressions(tolerance=0.10)
        assert comparison.regressions(tolerance=0.001)

    def test_summary_rows_shape(self):
        rows = compare_rows(BASE, candidate()).summary_rows()
        assert {"key", "metric", "baseline", "candidate", "delta"} <= set(rows[0])

    def test_metric_delta_relative(self):
        delta = MetricDelta(("cora",), "mean", baseline=0.5, candidate=0.55)
        assert delta.relative == pytest.approx(0.1)


class TestFiles:
    def test_compare_files(self, tmp_path):
        base_path = tmp_path / "base.json"
        cand_path = tmp_path / "cand.json"
        save_rows(BASE, base_path)
        save_rows(candidate(mean_shift=-0.2), cand_path)
        comparison = compare_files(base_path, cand_path)
        assert comparison.matched == 3
        assert comparison.regressions(0.05)


def _registry_record(timestamp, seconds, counters=None, summary=None):
    from repro.telemetry.registry import build_record

    manifest = {"experiment": "efficiency", "config": {"epochs": 2},
                "seed": 0, "datasets": ["cora"]}
    return build_record(
        manifest,
        stages={"train": {"seconds": seconds, "self_seconds": seconds / 2,
                          "ram_delta_bytes": 0}},
        metrics={"counters": dict(counters or {})},
        summary=dict(summary or {}),
        timestamp=timestamp,
    )


class TestRegistryDeltas:
    def test_stage_counter_summary_rows(self):
        base = _registry_record(1.0, 2.0, counters={"ops.spmm.flops": 100},
                                summary={"mean": 0.80})
        cand = _registry_record(2.0, 3.0, counters={"ops.spmm.flops": 150},
                                summary={"mean": 0.82})
        rows = registry_delta_rows(base, cand)
        by_metric = {r["metric"]: r for r in rows}
        train = by_metric["stages.train.seconds"]
        assert train["delta"] == pytest.approx(1.0)
        assert train["rel"] == pytest.approx(0.5)
        assert by_metric["counters.ops.spmm.flops"]["delta"] == 50
        assert by_metric["summary.mean"]["delta"] == pytest.approx(0.02)

    def test_unchanged_counters_omitted_and_zero_rows_finite(self):
        base = _registry_record(1.0, 2.0, counters={"ops.spmm.flops": 100})
        cand = _registry_record(2.0, 2.0, counters={"ops.spmm.flops": 100})
        rows = registry_delta_rows(base, cand)
        metrics = {r["metric"] for r in rows}
        assert "counters.ops.spmm.flops" not in metrics
        # 0 -> 0 rows report rel 0, not inf.
        ram = next(r for r in rows
                   if r["metric"] == "stages.train.ram_delta_bytes")
        assert ram["rel"] == 0.0

    def test_compare_registry_resolves_latest_pair(self, tmp_path):
        from repro.telemetry.registry import RunRegistry

        registry = RunRegistry(tmp_path)
        registry.append(_registry_record(1.0, 1.0))
        registry.append(_registry_record(2.0, 2.0))
        registry.append(_registry_record(3.0, 4.0))
        fingerprint = registry.load()[0].config_fingerprint
        baseline, candidate, rows = compare_registry(
            fingerprint, registry_dir=tmp_path)
        # Two most recent: 2.0s -> 4.0s, the first run is out of the diff.
        assert baseline.timestamp == 2.0 and candidate.timestamp == 3.0
        train = next(r for r in rows if r["metric"] == "stages.train.seconds")
        assert train["baseline"] == 2.0 and train["candidate"] == 4.0

    def test_compare_registry_unknown_spec(self, tmp_path):
        with pytest.raises(ReproError, match="need 2"):
            compare_registry("no-such-config", registry_dir=tmp_path)
