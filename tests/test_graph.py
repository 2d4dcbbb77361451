"""Graph container: construction, normalization, spectral properties."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import Graph


def _csr_bytes(matrix):
    return [(a.dtype.str, a.tobytes())
            for a in (matrix.indptr, matrix.indices, matrix.data)]


@st.composite
def adjacency_inputs(draw):
    """(matrix, layout, dtype): canonical CSR, raw CSR or COO, ± self-loops."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=40))
    node = st.integers(min_value=0, max_value=n - 1)
    rows = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    cols = np.array(draw(st.lists(node, min_size=m, max_size=m)), dtype=np.int64)
    if not draw(st.booleans(), label="self_loops"):
        rows, cols = rows[rows != cols], cols[rows != cols]
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    # Weights include 0, so explicit zeros are stored too.
    data = np.array(draw(st.lists(st.integers(0, 3), min_size=rows.size,
                                  max_size=rows.size)), dtype=dtype)
    layout = draw(st.sampled_from(["canonical", "raw", "coo"]))
    if layout == "canonical":
        matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    elif layout == "coo":
        matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    else:  # rows in order, columns unsorted within a row, duplicates kept
        order = np.argsort(rows, kind="stable")
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        matrix = sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))
    return matrix, layout, dtype


class TestConstruction:
    def test_from_edges_symmetrizes(self):
        g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
        dense = g.adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert g.num_edges == 4  # both directions counted

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(2, np.array([[0, 1], [0, 1], [1, 0]]))
        assert g.num_edges == 2
        assert g.adjacency.max() == 1.0

    def test_self_loops_removed(self):
        adj = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        g = Graph(adj)
        assert g.adjacency.diagonal().sum() == 0.0

    @given(adjacency_inputs(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_adjacency_matches_the_setdiag_expression(self, drawn, symmetric):
        """Skipping ``setdiag`` on an empty diagonal changes no byte.

        The reference is the constructor's former body. The one input it
        left non-canonical is a float32 CSR with unsorted or duplicate
        entries (``astype`` to the same dtype does not canonicalise); there
        the graph holds the canonical form of the same matrix.
        """
        matrix, layout, dtype = drawn
        expected = matrix.tocsr().astype(np.float32)
        expected.setdiag(0)
        expected.eliminate_zeros()
        if not symmetric:
            expected = expected.maximum(expected.T)

        adjacency = Graph(matrix.copy(), assume_symmetric=symmetric).adjacency
        if layout == "raw" and dtype == np.float32:
            canonical = sp.csr_matrix(expected.toarray())
            assert _csr_bytes(adjacency) == _csr_bytes(canonical)
        else:
            assert _csr_bytes(adjacency) == _csr_bytes(expected)

    def test_bad_edge_shape(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.array([0, 1, 2]))

    def test_out_of_range_edges(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, np.array([[0, 5]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(GraphError):
            Graph(sp.csr_matrix(np.zeros((2, 3))))

    def test_feature_row_mismatch(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.array([[0, 1]]), features=np.zeros((2, 4)))

    def test_label_shape_mismatch(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.array([[0, 1]]), labels=np.zeros((2,)))

    def test_degrees(self, tiny_graph):
        degrees = tiny_graph.degrees
        assert degrees[0] == 2  # triangle corner
        assert degrees[2] == 3  # triangle + bridge
        assert degrees[7] == 1  # tail end

    def test_num_features_and_classes(self, tiny_graph):
        assert tiny_graph.num_features == 8
        assert tiny_graph.num_classes == 2

    def test_missing_features_raise(self):
        g = Graph.from_edges(2, np.array([[0, 1]]))
        with pytest.raises(GraphError):
            g.num_features
        with pytest.raises(GraphError):
            g.num_classes


class TestNormalization:
    def test_rho_one_columns_sum_to_one(self, tiny_graph):
        # Ã = D̄^0 Ā D̄^{-1}: column-stochastic.
        adj = tiny_graph.normalized_adjacency(rho=1.0)
        np.testing.assert_allclose(np.asarray(adj.sum(axis=0)).ravel(),
                                   np.ones(8), rtol=1e-5)

    def test_rho_zero_rows_sum_to_one(self, tiny_graph):
        # Ã = D̄^{-1} Ā D̄^0: row-stochastic (random walk).
        adj = tiny_graph.normalized_adjacency(rho=0.0)
        np.testing.assert_allclose(np.asarray(adj.sum(axis=1)).ravel(),
                                   np.ones(8), rtol=1e-5)

    def test_symmetric_at_half(self, tiny_graph):
        adj = tiny_graph.normalized_adjacency(rho=0.5).toarray()
        np.testing.assert_allclose(adj, adj.T, atol=1e-6)

    def test_laplacian_eigenvalues_in_range(self, tiny_graph):
        lap = tiny_graph.laplacian(rho=0.5).toarray()
        eigenvalues = np.linalg.eigvalsh((lap + lap.T) / 2)
        assert eigenvalues.min() >= -1e-5
        assert eigenvalues.max() <= 2.0 + 1e-5

    def test_smallest_eigenvalue_is_zero(self, tiny_graph):
        lap = tiny_graph.laplacian(rho=0.5).toarray()
        eigenvalues = np.linalg.eigvalsh((lap + lap.T) / 2)
        assert abs(eigenvalues[0]) < 1e-5

    def test_cache_returns_same_object(self, tiny_graph):
        a = tiny_graph.normalized_adjacency(0.5)
        b = tiny_graph.normalized_adjacency(0.5)
        assert a is b
        c = tiny_graph.normalized_adjacency(0.25)
        assert c is not a

    def test_invalid_rho(self, tiny_graph):
        with pytest.raises(GraphError):
            tiny_graph.normalized_adjacency(rho=1.5)

    def test_no_self_loops_variant(self, tiny_graph):
        with_loops = tiny_graph.normalized_adjacency(0.5, self_loops=True)
        without = tiny_graph.normalized_adjacency(0.5, self_loops=False)
        assert with_loops.diagonal().sum() > 0
        assert without.diagonal().sum() == 0

    def test_isolated_node_handled(self):
        g = Graph.from_edges(3, np.array([[0, 1]]))
        adj = g.normalized_adjacency(0.5)
        assert np.all(np.isfinite(adj.toarray()))


class TestStructure:
    def test_subgraph_preserves_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 6  # triangle, both directions
        np.testing.assert_array_equal(sub.labels, [0, 0, 0])

    def test_subgraph_severs_external_edges(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([2, 3]))
        assert sub.num_edges == 2  # only the bridge

    def test_edge_list_unique_upper(self, tiny_graph):
        edges = tiny_graph.edge_list()
        assert edges.shape == (9, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_memory_bytes_positive(self, tiny_graph):
        assert tiny_graph.memory_bytes() > 0

    def test_repr(self, tiny_graph):
        assert "tiny" in repr(tiny_graph)
