"""Canonical graphs: measured spectra vs closed forms.

These are the strongest correctness anchors in the suite: if the
normalization, Laplacian, or eigendecomposition had any systematic error,
the analytic spectra of cycles / complete graphs / stars would expose it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.families import (
    barbell_graph,
    complete_graph,
    complete_spectrum,
    cycle_graph,
    cycle_spectrum,
    grid_graph,
    path_graph,
    star_graph,
    star_spectrum,
)


def measured_spectrum(graph):
    """Spectrum of the self-loop-free normalized Laplacian."""
    lap = np.eye(graph.num_nodes) - graph.normalized_adjacency(
        0.5, self_loops=False).toarray()
    return np.linalg.eigvalsh((lap + lap.T) / 2)


class TestClosedFormSpectra:
    @pytest.mark.parametrize("n", [3, 4, 7, 12, 25])
    def test_cycle(self, n):
        np.testing.assert_allclose(measured_spectrum(cycle_graph(n)),
                                   cycle_spectrum(n), atol=1e-5)

    @pytest.mark.parametrize("n", [2, 3, 5, 10])
    def test_complete(self, n):
        np.testing.assert_allclose(measured_spectrum(complete_graph(n)),
                                   complete_spectrum(n), atol=1e-5)

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_star(self, k):
        np.testing.assert_allclose(measured_spectrum(star_graph(k)),
                                   star_spectrum(k), atol=1e-5)

    def test_path_extremes(self):
        spectrum = measured_spectrum(path_graph(10))
        assert spectrum[0] == pytest.approx(0.0, abs=1e-6)
        assert spectrum[-1] < 2.0  # paths are not bipartite-regular at 2

    def test_cycle_bipartite_iff_even(self):
        # λ_max = 2 exactly when the cycle is bipartite (even length).
        even = measured_spectrum(cycle_graph(8))
        odd = measured_spectrum(cycle_graph(9))
        assert even[-1] == pytest.approx(2.0, abs=1e-6)
        assert odd[-1] < 2.0 - 1e-3


class TestStructure:
    def test_sizes(self):
        assert cycle_graph(6).num_edges == 12
        assert path_graph(6).num_edges == 10
        assert complete_graph(5).num_edges == 20
        assert star_graph(4).num_nodes == 5
        assert grid_graph(3, 4).num_nodes == 12
        assert grid_graph(3, 4).num_edges == 2 * (3 * 3 + 2 * 4)

    def test_barbell_bottleneck(self):
        graph = barbell_graph(5, bridge_length=2)
        assert graph.num_nodes == 12
        spectrum = measured_spectrum(graph)
        # Algebraic connectivity is tiny relative to a clique's.
        assert spectrum[1] < 0.1
        dense = measured_spectrum(complete_graph(12))
        assert spectrum[1] < dense[1] / 5

    def test_validation(self):
        with pytest.raises(GraphError):
            cycle_graph(2)
        with pytest.raises(GraphError):
            path_graph(1)
        with pytest.raises(GraphError):
            complete_graph(1)
        with pytest.raises(GraphError):
            star_graph(0)
        with pytest.raises(GraphError):
            grid_graph(0, 5)
        with pytest.raises(GraphError):
            barbell_graph(2)


class TestFilterBehaviourOnKnownSpectra:
    def test_linear_filter_kills_bipartite_top(self):
        """g(λ)=2−λ zeroes the λ=2 mode of an even cycle exactly."""
        from repro.filters import make_filter

        graph = cycle_graph(8)
        n = graph.num_nodes
        # The λ=2 eigenvector of an even cycle is the alternating sign
        # vector (for the no-self-loop Laplacian). With self-loops the
        # spectrum contracts, so evaluate via the filter's own response.
        filter_ = make_filter("linear")
        response = filter_.response(np.array([2.0]))
        assert response[0] == pytest.approx(0.0, abs=1e-12)

    def test_heat_kernel_smooths_star(self):
        """Diffusion on a star pulls leaf signals toward the hub mean."""
        from repro.filters import PropagationContext, make_filter

        graph = star_graph(8)
        x = np.zeros((9, 1), dtype=np.float32)
        x[1, 0] = 1.0  # one hot leaf
        out = make_filter("hk", num_hops=20, alpha=3.0).forward(
            PropagationContext.for_graph(graph), x)
        # Mass spreads: other leaves now see some signal.
        assert out[2, 0] > 0.01
        assert out[1, 0] < 1.0
