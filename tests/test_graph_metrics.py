"""Node homophily and degree groups on crafted graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    Graph,
    degree_groups,
    node_homophily,
)


def path_graph(labels):
    n = len(labels)
    edges = np.array([[i, i + 1] for i in range(n - 1)])
    return Graph.from_edges(n, edges, labels=np.asarray(labels))


class TestHomophily:
    def test_fully_homophilous(self):
        g = path_graph([0, 0, 0, 0])
        assert node_homophily(g) == 1.0

    def test_fully_heterophilous(self):
        g = path_graph([0, 1, 0, 1])
        assert node_homophily(g) == 0.0

    def test_mixed_path(self):
        g = path_graph([0, 0, 1])
        # node scores: node0: 1/1, node1: 1/2, node2: 0/1 -> mean 0.5
        assert node_homophily(g) == pytest.approx(0.5)

    def test_explicit_labels_override(self):
        g = path_graph([0, 0, 0])
        assert node_homophily(g, np.array([0, 1, 0])) == 0.0

    def test_requires_labels(self):
        g = Graph.from_edges(2, np.array([[0, 1]]))
        with pytest.raises(GraphError):
            node_homophily(g)

    def test_edgeless_graph_rejected(self):
        g = Graph.from_edges(2, np.empty((0, 2), dtype=int),
                             labels=np.array([0, 1]))
        with pytest.raises(GraphError):
            node_homophily(g)

    def test_tiny_graph_value(self, tiny_graph):
        # Only the bridge endpoints 2 and 3 have a cross-label neighbour,
        # one of three each: (6 + 2 · 2/3) / 8.
        assert node_homophily(tiny_graph) == pytest.approx(11.0 / 12.0)


class TestDegreeGroups:
    def test_partition_covers_all(self, tiny_graph):
        high, low = degree_groups(tiny_graph)
        assert len(high) + len(low) == tiny_graph.num_nodes
        assert len(np.intersect1d(high, low)) == 0

    def test_high_group_has_higher_degrees(self, tiny_graph):
        high, low = degree_groups(tiny_graph)
        if len(low):
            assert tiny_graph.degrees[high].min() >= tiny_graph.degrees[low].max()

    def test_quantile_extremes(self, tiny_graph):
        high, low = degree_groups(tiny_graph, quantile=0.0)
        assert len(low) == 0
        assert len(high) == tiny_graph.num_nodes
