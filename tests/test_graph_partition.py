"""BFS partitioner: coverage, balance, and cut-edge accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import Graph, bfs_partition, cut_edges


class TestPartition:
    def test_covers_every_node_once(self, small_graph, rng):
        parts = bfs_partition(small_graph, 4, rng=rng)
        combined = np.concatenate(parts)
        assert len(combined) == small_graph.num_nodes
        assert len(np.unique(combined)) == small_graph.num_nodes

    def test_single_part_is_everything(self, small_graph, rng):
        parts = bfs_partition(small_graph, 1, rng=rng)
        assert len(parts) == 1
        assert len(parts[0]) == small_graph.num_nodes

    @pytest.mark.parametrize("num_parts", [2, 3, 5])
    def test_rough_balance(self, small_graph, rng, num_parts):
        parts = bfs_partition(small_graph, num_parts, rng=rng)
        sizes = [len(p) for p in parts]
        cap = int(np.ceil(small_graph.num_nodes / num_parts))
        assert max(sizes) <= cap + num_parts  # leftovers may pad slightly

    def test_handles_disconnected_graph(self, rng):
        # Two components + isolated node.
        edges = np.array([[0, 1], [1, 2], [3, 4]])
        g = Graph.from_edges(6, edges)
        parts = bfs_partition(g, 2, rng=rng)
        assert sum(len(p) for p in parts) == 6

    def test_invalid_counts(self, tiny_graph, rng):
        with pytest.raises(GraphError):
            bfs_partition(tiny_graph, 0, rng=rng)

    def test_more_parts_than_nodes_clamps_to_singletons(self, tiny_graph, rng):
        # Used to raise; now clamps to n singleton parts, all non-empty.
        parts = bfs_partition(tiny_graph, 100, rng=rng)
        assert len(parts) == tiny_graph.num_nodes
        assert all(len(p) == 1 for p in parts)
        combined = np.concatenate(parts)
        assert len(np.unique(combined)) == tiny_graph.num_nodes

    def test_empty_graph_raises(self, rng):
        g = Graph.from_edges(0, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(GraphError):
            bfs_partition(g, 2, rng=rng)

    @pytest.mark.parametrize("num_parts", [2, 3, 4, 5])
    def test_no_empty_parts(self, rng, num_parts):
        # Path of 5 nodes: BFS from an end swallows the whole path before
        # later seeds get a chance — the rebalance pass must refill them.
        edges = np.array([[i, i + 1] for i in range(4)])
        g = Graph.from_edges(5, edges)
        for seed in range(10):
            parts = bfs_partition(g, num_parts,
                                  rng=np.random.default_rng(seed))
            assert len(parts) == num_parts
            assert all(len(p) > 0 for p in parts)
            combined = np.concatenate(parts)
            assert len(np.unique(combined)) == 5

    def test_disconnected_no_empty_parts(self, rng):
        # 3 isolated nodes + a triangle, more parts than components.
        edges = np.array([[0, 1], [1, 2], [2, 0]])
        g = Graph.from_edges(6, edges)
        parts = bfs_partition(g, 5, rng=rng)
        assert len(parts) == 5
        assert all(len(p) > 0 for p in parts)
        assert sum(len(p) for p in parts) == 6

    def test_deterministic_given_rng(self, small_graph):
        a = bfs_partition(small_graph, 3, rng=np.random.default_rng(1))
        b = bfs_partition(small_graph, 3, rng=np.random.default_rng(1))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)


class TestCutEdges:
    def test_no_cut_for_single_part(self, tiny_graph, rng):
        parts = bfs_partition(tiny_graph, 1, rng=rng)
        assert cut_edges(tiny_graph, parts) == 0

    def test_known_cut(self, tiny_graph):
        # Split exactly at the 2-3 bridge: 2 directed edges cut.
        parts = [np.array([0, 1, 2]), np.array([3, 4, 5, 6, 7])]
        assert cut_edges(tiny_graph, parts) == 2

    def test_cut_bounded_by_edge_count(self, small_graph, rng):
        parts = bfs_partition(small_graph, 8, rng=rng)
        cut = cut_edges(small_graph, parts)
        assert 0 < cut <= small_graph.num_edges
