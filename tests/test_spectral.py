"""Spectral utilities: decomposition, response analysis, t-SNE."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, ReproError
from repro.filters import make_filter
from repro.spectral import (
    MAX_DENSE_NODES,
    clear_eig_cache,
    cluster_separation,
    decomposition,
    laplacian_eigendecomposition,
    response_alignment,
    response_on_grid,
    tsne,
)


class TestDecomposition:
    def test_eigenvalues_sorted_and_bounded(self, small_graph):
        eigenvalues, _ = laplacian_eigendecomposition(small_graph)
        assert np.all(np.diff(eigenvalues) >= -1e-9)
        assert eigenvalues[0] == pytest.approx(0.0, abs=1e-5)
        assert eigenvalues[-1] <= 2.0 + 1e-6

    def test_eigenvectors_orthonormal(self, small_graph):
        _, eigenvectors = laplacian_eigendecomposition(small_graph)
        gram = eigenvectors.T @ eigenvectors
        np.testing.assert_allclose(gram, np.eye(small_graph.num_nodes), atol=1e-8)

    def test_reconstruction(self, tiny_graph):
        eigenvalues, eigenvectors = laplacian_eigendecomposition(tiny_graph)
        reconstructed = eigenvectors @ np.diag(eigenvalues) @ eigenvectors.T
        lap = tiny_graph.laplacian(0.5).toarray()
        np.testing.assert_allclose(reconstructed, (lap + lap.T) / 2, atol=1e-5)

    def test_large_graph_guardrail(self):
        from repro.graph import Graph
        import scipy.sparse as sp

        n = MAX_DENSE_NODES + 1
        g = Graph(sp.identity(n, format="csr") * 0)
        with pytest.raises(GraphError):
            laplacian_eigendecomposition(g)


class TestEigObservability:
    """The decomposition path is instrumented: op counters + memoization."""

    @pytest.fixture(autouse=True)
    def _fresh(self):
        from repro import telemetry

        telemetry.shutdown()
        clear_eig_cache()
        yield
        telemetry.shutdown()
        clear_eig_cache()

    def test_dense_eig_flops_counted(self, tiny_graph):
        from repro import telemetry
        from repro.spectral.decomposition import DENSE_EIG_FLOPS_PER_N3

        telemetry.configure()
        eigenvalues, eigenvectors = laplacian_eigendecomposition(tiny_graph)
        metrics = telemetry.get_metrics()
        n = tiny_graph.num_nodes
        assert metrics.counter("ops.eig.calls").value == 1
        assert metrics.counter("ops.eig.flops").value \
            == DENSE_EIG_FLOPS_PER_N3 * n ** 3
        assert metrics.counter("ops.eig.bytes").value \
            == eigenvalues.nbytes + eigenvectors.nbytes

    def test_memoized_second_call_skips_solve(self, tiny_graph):
        from repro import telemetry

        telemetry.configure()
        first = laplacian_eigendecomposition(tiny_graph)
        second = laplacian_eigendecomposition(tiny_graph)
        metrics = telemetry.get_metrics()
        # One actual O(n^3) solve; the second call is a cache hit.
        assert metrics.counter("ops.eig.calls").value == 1
        assert metrics.counter("cache.eig.hit").value == 1
        assert metrics.counter("cache.eig.miss").value == 1
        assert first[0] is second[0] and first[1] is second[1]

    def test_cached_arrays_are_read_only(self, tiny_graph):
        eigenvalues, eigenvectors = laplacian_eigendecomposition(tiny_graph)
        with pytest.raises(ValueError):
            eigenvalues[0] = 99.0
        with pytest.raises(ValueError):
            eigenvectors[0, 0] = 99.0

    def test_distinct_rho_distinct_entries(self, tiny_graph, counters):
        laplacian_eigendecomposition(tiny_graph, rho=0.5)
        laplacian_eigendecomposition(tiny_graph, rho=1.0)
        assert counters()["cache.eig.miss"] == 2
        assert len(decomposition._eig_cache) == 2

    def test_mutation_invalidates(self, tiny_graph):
        from repro import telemetry

        telemetry.configure()
        laplacian_eigendecomposition(tiny_graph)
        tiny_graph.adjacency.data[0] += 1.0  # mutate in place
        laplacian_eigendecomposition(tiny_graph)
        metrics = telemetry.get_metrics()
        assert metrics.counter("ops.eig.calls").value == 2
        assert metrics.counter("cache.eig.hit").value == 0

    def test_disabled_caches_bypass_memo(self, tiny_graph):
        from repro import telemetry
        from repro.runtime.context import using

        telemetry.configure()
        with using(cache=False):
            first = laplacian_eigendecomposition(tiny_graph)
            second = laplacian_eigendecomposition(tiny_graph)
        metrics = telemetry.get_metrics()
        assert metrics.counter("ops.eig.calls").value == 2
        assert first[0] is not second[0]
        # Seed behaviour restored: the caller may mutate its result.
        assert first[0].flags.writeable and first[1].flags.writeable


class TestResponseAnalysis:
    def test_grid_shape(self):
        lams, response = response_on_grid(make_filter("ppr"), num_points=31)
        assert lams.shape == response.shape == (31,)

    def test_alignment_prefers_matching_filter(self, small_graph):
        """A smooth signal aligns better with a low-pass filter."""
        eigenvalues, eigenvectors = laplacian_eigendecomposition(small_graph)
        smooth = eigenvectors[:, :5] @ np.ones(5)  # low-frequency signal
        low = response_alignment(make_filter("hk", alpha=2.0), small_graph, smooth)
        from repro.filters.bank import LaplacianMonomialFilter

        high = response_alignment(LaplacianMonomialFilter(num_hops=10),
                                  small_graph, smooth)
        assert low > high


class TestTsne:
    def test_separates_gaussian_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(size=(40, 10)) + 8.0
        blob_b = rng.normal(size=(40, 10)) - 8.0
        points = np.concatenate([blob_a, blob_b])
        labels = np.array([0] * 40 + [1] * 40)
        embedding = tsne(points, perplexity=15, num_iterations=150, seed=0)
        assert embedding.shape == (80, 2)
        assert cluster_separation(embedding, labels) > 2.0

    def test_deterministic(self, rng):
        points = rng.normal(size=(30, 5))
        a = tsne(points, perplexity=10, num_iterations=50, seed=1)
        b = tsne(points, perplexity=10, num_iterations=50, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_input_validation(self):
        with pytest.raises(ReproError):
            tsne(np.zeros(10))
        with pytest.raises(ReproError):
            tsne(np.zeros((5, 2)), perplexity=10)

    def test_centered_output(self, rng):
        embedding = tsne(rng.normal(size=(40, 4)), perplexity=10,
                         num_iterations=60)
        np.testing.assert_allclose(embedding.mean(axis=0), [0, 0], atol=1e-8)

    def test_cluster_separation_validation(self):
        with pytest.raises(ReproError):
            cluster_separation(np.zeros((4, 2)), np.zeros(4, dtype=int))
