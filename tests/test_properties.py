"""Property-based tests (hypothesis) on core invariants.

These fuzz the substrate where hand-picked examples are weakest: autodiff
gradients on random graphs of ops, broadcasting, filter linearity and
response consistency, split partitions, and metric bounds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import Tensor
from repro.autodiff import functional as F
from repro.datasets import random_split, stratified_split
from repro.filters import REGISTRY, PropagationContext, make_filter
from repro.graph import Graph, node_homophily
from repro.training import accuracy, r2_score, roc_auc

FIXED_NAMES = [n for n, e in REGISTRY.items() if e.category == "fixed"]

floats = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=32)


def arrays(shape):
    return hnp.arrays(np.float64, shape, elements=floats)


class TestAutodiffProperties:
    @given(arrays((3, 4)), arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        ta = Tensor(a, requires_grad=True, dtype=np.float64)
        tb = Tensor(b, requires_grad=True, dtype=np.float64)
        (ta + tb).sum().backward()
        np.testing.assert_allclose(ta.grad, np.ones_like(a))
        np.testing.assert_allclose(tb.grad, np.ones_like(b))

    @given(arrays((3, 4)), arrays((3, 4)))
    @settings(max_examples=30, deadline=None)
    def test_product_rule(self, a, b):
        ta = Tensor(a, requires_grad=True, dtype=np.float64)
        tb = Tensor(b, requires_grad=True, dtype=np.float64)
        (ta * tb).sum().backward()
        np.testing.assert_allclose(ta.grad, b, atol=1e-10)
        np.testing.assert_allclose(tb.grad, a, atol=1e-10)

    @given(arrays((2, 5)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_is_distribution(self, a):
        out = F.softmax(Tensor(a), axis=1).data
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(2), rtol=1e-5)

    @given(arrays((6,)), st.integers(min_value=0, max_value=1))
    @settings(max_examples=30, deadline=None)
    def test_bce_nonnegative(self, logits, label):
        targets = np.full(6, float(label))
        loss = float(F.binary_cross_entropy_with_logits(
            Tensor(logits, dtype=np.float64), targets).data)
        assert loss >= -1e-9

    @given(arrays((3, 4)), arrays((4, 2)))
    @settings(max_examples=20, deadline=None)
    def test_matmul_matches_numpy(self, a, b):
        out = (Tensor(a, dtype=np.float64) @ Tensor(b, dtype=np.float64)).data
        np.testing.assert_allclose(out, a @ b, atol=1e-10)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=5, max_value=30))
    num_edges = draw(st.integers(min_value=n, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=1000))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(num_edges, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, 1]])
    labels = rng.integers(0, 3, size=n)
    return Graph.from_edges(n, edges, labels=labels)


class TestGraphProperties:
    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_homophily_bounded(self, graph):
        assert 0.0 <= node_homophily(graph) <= 1.0

    @given(random_graphs(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_laplacian_spectrum_bounded(self, graph, rho):
        lap = graph.laplacian(rho=0.5).toarray()
        eigenvalues = np.linalg.eigvalsh((lap + lap.T) / 2)
        assert eigenvalues.min() >= -1e-4
        assert eigenvalues.max() <= 2.0 + 1e-4

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_adjacency_symmetric(self, graph):
        diff = graph.adjacency - graph.adjacency.T
        assert abs(diff).max() == 0


class TestFilterProperties:
    @given(st.sampled_from(FIXED_NAMES), st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_fixed_filter_scaling_equivariance(self, name, num_hops):
        """g(L̃)(c·x) == c·g(L̃)x for fixed filters."""
        rng = np.random.default_rng(0)
        graph = Graph.from_edges(12, rng.integers(0, 12, size=(30, 2)))
        filter_ = make_filter(name, num_hops=num_hops, num_features=2)
        x = rng.normal(size=(12, 2)).astype(np.float32)
        ctx = PropagationContext.for_graph(graph)
        a = np.asarray(filter_.forward(ctx, 3.0 * x))
        b = 3.0 * np.asarray(filter_.forward(ctx, x))
        np.testing.assert_allclose(a, b, atol=1e-3)

    @given(st.sampled_from(FIXED_NAMES))
    @settings(max_examples=20, deadline=None)
    def test_response_independent_of_grid_density(self, name):
        filter_ = make_filter(name, num_hops=6, num_features=2)
        coarse = filter_.response(np.array([0.0, 1.0, 2.0]))
        fine = filter_.response(np.linspace(0, 2, 201))
        np.testing.assert_allclose(coarse, fine[[0, 100, 200]], atol=1e-8)


class TestSplitProperties:
    @given(st.integers(min_value=10, max_value=500),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_random_split_partitions(self, n, seed):
        split = random_split(n, seed=seed)
        combined = np.concatenate([split.train, split.valid, split.test])
        assert len(combined) == n
        assert len(np.unique(combined)) == n

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_stratified_split_partitions(self, seed):
        labels = np.random.default_rng(seed).integers(0, 4, size=120)
        split = stratified_split(labels, seed=seed)
        combined = np.concatenate([split.train, split.valid, split.test])
        assert len(np.unique(combined)) == 120


class TestMetricProperties:
    @given(st.integers(min_value=2, max_value=50),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_accuracy_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 3))
        labels = rng.integers(0, 3, size=n)
        assert 0.0 <= accuracy(logits, labels) <= 1.0

    @given(st.integers(min_value=4, max_value=100),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_auc_symmetry(self, n, seed):
        """AUC(scores) + AUC(-scores) == 1."""
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=n)
        labels = np.r_[np.zeros(n // 2, dtype=int), np.ones(n - n // 2, dtype=int)]
        forward = roc_auc(scores, labels)
        backward = roc_auc(-scores, labels)
        assert forward + backward == pytest.approx(1.0, abs=1e-9)

    @given(arrays((20,)))
    @settings(max_examples=30, deadline=None)
    def test_r2_of_self_is_one(self, y):
        if np.std(y) < 1e-6:
            return  # degenerate constant target
        assert r2_score(y, y) == pytest.approx(1.0)
