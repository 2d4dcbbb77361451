"""Bench harness: experiment runners produce well-formed paper rows."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.bench import (
    DEFAULT_SCALES,
    REPRESENTATIVE_FILTERS,
    dataset_scale,
    effectiveness_experiment,
    efficiency_experiment,
    linkpred_experiment,
    load_dataset,
    pivot,
    regression_experiment,
    render_table,
    taxonomy_experiment,
)
from repro.datasets import get_spec
from repro.training import TrainConfig

TINY = TrainConfig(epochs=2, patience=0, eval_every=5)


class TestFormatting:
    def test_render_table_aligns(self):
        text = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert len({len(line) for line in lines[1:]}) == 1

    def test_render_empty(self):
        assert "(no rows)" in render_table([], title="empty")

    def test_pivot(self):
        rows = [
            {"filter": "ppr", "dataset": "cora", "cell": "1"},
            {"filter": "ppr", "dataset": "roman", "cell": "2"},
            {"filter": "hk", "dataset": "cora", "cell": "3"},
        ]
        wide = pivot(rows, index="filter", column="dataset", value="cell")
        assert wide[0] == {"filter": "ppr", "cora": "1", "roman": "2"}
        assert wide[1]["cora"] == "3"


class TestScaling:
    def test_default_scales_ordered(self):
        assert DEFAULT_SCALES["S"] > DEFAULT_SCALES["M"] > DEFAULT_SCALES["L"]

    def test_dataset_scale_override(self):
        spec = get_spec("cora")
        assert dataset_scale(spec) == DEFAULT_SCALES["S"]
        assert dataset_scale(spec, 0.7) == 0.7

    def test_scaled_sizes_preserve_ordering(self):
        small = load_dataset("cora")
        medium = load_dataset("arxiv")
        large = load_dataset("pokec")
        assert small.num_nodes < medium.num_nodes < large.num_nodes


class TestExperiments:
    def test_taxonomy_has_all_filters(self):
        rows = taxonomy_experiment(num_hops=4)
        assert len(rows) == 27
        quadratic = [r for r in rows if r["quadratic_hops"]]
        names = {r["filter"] for r in quadratic}
        assert "Bernstein" in names

    def test_representative_filters_valid(self):
        from repro.filters import FILTER_NAMES

        assert set(REPRESENTATIVE_FILTERS) <= set(FILTER_NAMES)
        # At least one of each category.
        from repro.filters import REGISTRY

        categories = {REGISTRY[n].category for n in REPRESENTATIVE_FILTERS}
        assert categories == {"fixed", "variable", "bank"}

    def test_efficiency_rows(self):
        rows = efficiency_experiment(
            dataset_names=("cora",), filters=("ppr", "chebyshev"),
            schemes=("full_batch", "mini_batch"), config=TINY)
        assert len(rows) == 4
        for row in rows:
            assert row["status"] == "ok"
            assert row["train_s_per_epoch"] > 0
        mb_rows = [r for r in rows if r["scheme"] == "mini_batch"]
        assert all(r["precompute_s"] > 0 for r in mb_rows)
        # The paper's memory orderings (Tables 5-6), which metering only
        # what reverse mode retains must not disturb.
        cell = {(r["filter"], r["scheme"]): r for r in rows}
        assert (cell["PPR", "full_batch"]["device_bytes"]
                > cell["PPR", "mini_batch"]["device_bytes"])
        assert (cell["Chebyshev", "mini_batch"]["ram_bytes"]
                > cell["PPR", "mini_batch"]["ram_bytes"])
        (edge_index,) = efficiency_experiment(
            dataset_names=("cora",), filters=("ppr",),
            schemes=("full_batch",),
            config=dataclasses.replace(TINY, backend="coo_gather"))
        assert (edge_index["device_bytes"]
                > cell["PPR", "full_batch"]["device_bytes"])

    def test_efficiency_oom_rows(self):
        rows = efficiency_experiment(
            dataset_names=("cora",), filters=("ppr",),
            schemes=("full_batch",), config=TINY,
            device_capacity_gib=1e-6)
        assert rows[0]["status"] == "oom"

    def test_effectiveness_cells(self):
        rows = effectiveness_experiment(
            dataset_names=("cora",), filters=("identity", "monomial"),
            seeds=(0,), config=TrainConfig(epochs=15, patience=0))
        assert len(rows) == 2
        for row in rows:
            assert "±" in row["cell"]
            assert 0 <= row["mean"] <= 1

    def test_regression_rows_have_all_signals(self):
        rows = regression_experiment(filters=("ppr", "chebyshev"),
                                     scale=0.05, epochs=20, num_hops=4)
        for row in rows:
            for signal in ("band", "combine", "high", "low", "reject"):
                assert signal in row

    def test_linkpred_rows(self):
        rows = linkpred_experiment(filters=("identity",), scale=0.0004,
                                   config=TrainConfig(epochs=2,
                                                      metric="roc_auc"))
        assert rows[0]["status"] == "ok"
        assert 0 <= rows[0]["auc"] <= 1
