"""Edge cases across the stack: degenerate sizes, K extremes, tiny graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import synthesize
from repro.filters import make_filter
from repro.filters.base import PropagationContext
from repro.graph import Graph
from repro.tasks import run_node_classification
from repro.training import TrainConfig


@pytest.fixture
def path_graph():
    edges = np.array([[i, i + 1] for i in range(9)])
    features = np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32)
    labels = np.array([0, 1] * 5)
    return Graph.from_edges(10, edges, features=features, labels=labels)


class TestZeroHops:
    @pytest.mark.parametrize("name", ["impulse", "monomial", "ppr", "hk",
                                      "monomial_var", "chebyshev", "horner",
                                      "bernstein", "legendre", "jacobi",
                                      "clenshaw"])
    def test_k_zero_filters_run(self, path_graph, name):
        filter_ = make_filter(name, num_hops=0, num_features=4)
        ctx = PropagationContext.for_graph(path_graph)
        params = {p: s.init for p, s in filter_.parameter_spec().items()}
        out = filter_.forward(ctx, path_graph.features, params or None)
        assert np.asarray(out).shape == (10, 4)

    def test_k_zero_impulse_is_identity(self, path_graph):
        filter_ = make_filter("impulse", num_hops=0)
        out = filter_.forward(PropagationContext.for_graph(path_graph),
                              path_graph.features)
        np.testing.assert_allclose(out, path_graph.features, atol=1e-6)


class TestLargeK:
    @pytest.mark.parametrize("name", ["chebyshev", "legendre", "jacobi",
                                      "clenshaw", "horner", "bernstein"])
    def test_k_30_stays_finite(self, path_graph, name):
        """The top of the Table 4 K range must not overflow numerically."""
        filter_ = make_filter(name, num_hops=30, num_features=4)
        lams = np.linspace(0, 2, 21)
        response = filter_.response(lams)
        assert np.all(np.isfinite(response))
        assert np.abs(response).max() < 1e6


class TestTinyGraphTraining:
    def test_trains_on_path_graph(self, path_graph):
        config = TrainConfig(epochs=10, patience=5, hidden=8)
        result = run_node_classification(path_graph, "chebyshev",
                                         config=config)
        assert result.status == "ok"

    def test_minibatch_single_batch(self, path_graph):
        config = TrainConfig(epochs=5, patience=0, batch_size=10_000, hidden=8)
        result = run_node_classification(path_graph, "ppr",
                                         scheme="mini_batch", config=config)
        assert result.status == "ok"

    def test_batch_size_one(self, path_graph):
        config = TrainConfig(epochs=2, patience=0, batch_size=1, hidden=8)
        result = run_node_classification(path_graph, "ppr",
                                         scheme="mini_batch", config=config)
        assert result.status == "ok"


class TestSingleClassSafety:
    def test_metrics_survive_missing_class_in_test(self):
        # All test labels the same class: accuracy still defined.
        from repro.training import accuracy

        logits = np.array([[1.0, 0.0]] * 4)
        assert accuracy(logits, np.zeros(4, dtype=int)) == 1.0


class TestFeatureWidthOne:
    def test_f1_dataset_trains(self):
        """Minesweeper-style tiny attribute width (the over-squashing case)."""
        graph = synthesize("minesweeper", scale=0.05, seed=0)
        assert graph.num_features == 7
        config = TrainConfig(epochs=10, patience=5, metric="roc_auc")
        fb = run_node_classification(graph, "chebyshev", config=config)
        mb = run_node_classification(graph, "chebyshev", scheme="mini_batch",
                                     config=config)
        assert fb.status == mb.status == "ok"


class TestDisconnectedGraph:
    def test_filters_handle_isolated_nodes(self):
        edges = np.array([[0, 1], [1, 2]])
        features = np.eye(5, dtype=np.float32)
        graph = Graph.from_edges(5, edges, features=features,
                                 labels=np.array([0, 0, 0, 1, 1]))
        for name in ("ppr", "chebyshev", "figure"):
            filter_ = make_filter(name, num_hops=4, num_features=5)
            channels = filter_.precompute(graph, features)
            assert np.all(np.isfinite(channels)), name

    def test_isolated_node_keeps_self_signal(self):
        edges = np.array([[0, 1]])
        features = np.eye(3, dtype=np.float32)
        graph = Graph.from_edges(3, edges, features=features)
        out = make_filter("ppr", num_hops=5).forward(
            PropagationContext.for_graph(graph), features)
        # Node 2 is isolated: the self-looped propagation keeps all of its
        # (truncated-PPR) mass on itself: Σ_k α(1−α)^k = 1 − (1−α)^{K+1}.
        assert out[2, 2] == pytest.approx(1.0 - 0.9 ** 6, abs=1e-5)
        assert out[2, :2].max() < 1e-6  # nothing leaks in from the component
