"""Baseline training loops (Table 6 runners) on tiny graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.baseline_runners import (
    BACKEND_LABELS,
    train_ansgt,
    train_iterative_baseline,
    train_nagphormer,
)
from repro.datasets import random_split, synthesize
from repro.errors import TrainingError
from repro.training import TrainConfig

CONFIG = TrainConfig(epochs=2, patience=0, eval_every=10, batch_size=128)


@pytest.fixture(scope="module")
def graph():
    return synthesize("cora", scale=0.08, seed=0)


@pytest.fixture(scope="module")
def split(graph):
    return random_split(graph.num_nodes, seed=0)


class TestIterativeRunner:
    @pytest.mark.parametrize("model_name", ["GCN", "GraphSAGE", "ChebNet"])
    def test_row_structure(self, graph, split, model_name):
        row = train_iterative_baseline(model_name, graph, split, CONFIG)
        assert row["model"] == model_name
        assert row["status"] == "ok"
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["train_s_per_epoch"] > 0
        assert row["device_bytes"] > 0

    def test_backend_labels(self, graph, split):
        row = train_iterative_baseline("GCN", graph, split, CONFIG,
                                       backend="coo_gather")
        assert row["backend"] == "EI"
        assert BACKEND_LABELS["csr"] == "SP"

    def test_ei_uses_more_device_memory(self, graph, split):
        sp_row = train_iterative_baseline("GCN", graph, split, CONFIG, "csr")
        ei_row = train_iterative_baseline("GCN", graph, split, CONFIG,
                                          "coo_gather")
        assert ei_row["device_bytes"] > sp_row["device_bytes"]

    def test_oom_reported(self, graph, split):
        row = train_iterative_baseline("GCN", graph, split, CONFIG,
                                       device_capacity_gib=1e-7)
        assert row["status"] == "oom"
        assert np.isnan(row["accuracy"])

    def test_unknown_model(self, graph, split):
        with pytest.raises(TrainingError):
            train_iterative_baseline("GAT", graph, split, CONFIG)


class TestTransformerRunners:
    def test_nagphormer_row(self, graph, split):
        row = train_nagphormer(graph, split, CONFIG)
        assert row["model"] == "NAGphormer"
        assert row["status"] == "ok"
        assert row["precompute_s"] > 0  # hop2token stage exists
        assert 0.0 <= row["accuracy"] <= 1.0

    def test_ansgt_row(self, graph, split):
        row = train_ansgt(graph, split, CONFIG)
        assert row["model"] == "ANS-GT"
        assert row["status"] == "ok"
        assert row["precompute_s"] == 0.0  # samples inside the epoch
        assert 0.0 <= row["accuracy"] <= 1.0

    def test_transformer_oom(self, graph, split):
        row = train_nagphormer(graph, split, CONFIG,
                               device_capacity_gib=1e-7)
        assert row["status"] == "oom"
