"""Task entry points: node classification, link prediction, regression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import synthesize
from repro.errors import TrainingError
from repro.tasks import (
    SeedSummary,
    build_task_filter,
    run_link_prediction,
    run_node_classification,
    run_seeds,
    run_signal_regression,
)
from repro.training import TrainConfig

FAST = TrainConfig(epochs=10, patience=5)


class TestNodeClassification:
    def test_roc_auc_metric_path(self):
        graph = synthesize("tolokers", scale=0.05, seed=0)
        config = TrainConfig(epochs=10, patience=5, metric="roc_auc")
        result = run_node_classification(graph, "linear", scheme="mini_batch",
                                         config=config)
        assert 0.0 <= result.test_score <= 1.0

    def test_filter_hp_passthrough(self, small_graph):
        result = run_node_classification(small_graph, "ppr", config=FAST,
                                         filter_hp={"alpha": 0.5})
        assert result.status == "ok"

    def test_adagnn_width_fb_vs_mb(self, small_graph):
        fb = build_task_filter("adagnn", small_graph, TrainConfig(hidden=32),
                               scheme="full_batch")
        mb = build_task_filter("adagnn", small_graph, TrainConfig(hidden=32),
                               scheme="mini_batch")
        assert fb.num_features == 32
        assert mb.num_features == small_graph.num_features

    def test_run_seeds_aggregates(self, small_graph):
        summary = run_seeds(small_graph, "monomial", scheme="mini_batch",
                            config=FAST, seeds=(0, 1))
        assert len(summary.scores) == 2
        assert summary.status == "ok"
        assert 0 <= summary.mean <= 1

    def test_shared_split_pins_split(self, small_graph):
        summary = run_seeds(small_graph, "identity", config=FAST,
                            seeds=(0, 1), shared_split_seed=7)
        assert len(summary.results) == 2

    def test_cell_formats(self):
        ok = SeedSummary(scores=[0.5, 0.6], results=[])
        assert ok.cell() == "55.00±5.00"
        from repro.training import RunResult

        oom = SeedSummary(scores=[], results=[RunResult(status="oom")])
        assert oom.cell() == "(OOM)"

    def test_empty_summary_nan(self):
        empty = SeedSummary(scores=[], results=[])
        assert np.isnan(empty.mean)


class TestLinkPrediction:
    def test_learns_structure(self):
        graph = synthesize("cora", scale=0.15, seed=0)
        result = run_link_prediction(graph, "ppr",
                                     config=TrainConfig(epochs=8), kappa=2)
        assert result.status == "ok"
        assert result.test_score > 0.6  # well above random

    def test_identity_weaker_than_structural(self):
        graph = synthesize("cora", scale=0.15, seed=0)
        structural = run_link_prediction(graph, "ppr",
                                         config=TrainConfig(epochs=8))
        baseline = run_link_prediction(graph, "identity",
                                       config=TrainConfig(epochs=8))
        assert structural.test_score > baseline.test_score - 0.05

    def test_kappa_validation(self, small_graph):
        with pytest.raises(TrainingError):
            run_link_prediction(small_graph, "ppr", kappa=0)

    def test_kappa_scales_train_volume(self):
        graph = synthesize("cora", scale=0.15, seed=0)
        lean = run_link_prediction(graph, "identity",
                                   config=TrainConfig(epochs=2), kappa=1)
        heavy = run_link_prediction(graph, "identity",
                                    config=TrainConfig(epochs=2), kappa=8)
        assert heavy.profiler.seconds("train") > lean.profiler.seconds("train")

    def test_oom_status(self):
        graph = synthesize("cora", scale=0.15, seed=0)
        result = run_link_prediction(graph, "ppr",
                                     config=TrainConfig(epochs=2),
                                     device_capacity_gib=1e-7)
        assert result.is_oom


class TestSignalRegression:
    def test_low_pass_fits_low_signal(self, small_graph):
        result = run_signal_regression(small_graph, "hk", "low", epochs=0)
        assert result.r2 > 0.5

    def test_low_pass_fails_high_signal(self, small_graph):
        result = run_signal_regression(small_graph, "hk", "high", epochs=0)
        assert result.r2 < 0.5

    def test_variable_filter_beats_fixed_on_band(self, small_graph):
        fixed = run_signal_regression(small_graph, "ppr", "band", epochs=0)
        variable = run_signal_regression(small_graph, "chebyshev", "band",
                                         epochs=120)
        assert variable.r2 > fixed.r2

    def test_learned_params_returned(self, small_graph):
        result = run_signal_regression(small_graph, "chebyshev", "low",
                                       epochs=30)
        assert "theta" in result.learned_params

    def test_identity_only_fits_allpass(self, small_graph):
        low = run_signal_regression(small_graph, "identity", "low", epochs=0)
        assert low.r2 < 0.6
