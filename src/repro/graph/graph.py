"""The :class:`Graph` container: CSR topology plus spectral operators.

Notation follows the paper (Section 2.1):

- ``A``  — raw adjacency (no self-loops), symmetric for undirected graphs;
- ``Ā``  — self-looped adjacency ``A + I``;
- ``Ã``  — generalized-normalized adjacency ``D̄^(ρ-1) Ā D̄^(-ρ)`` with the
  normalization coefficient ``ρ ∈ [0, 1]`` (ρ = 1/2 is the symmetric norm);
- ``L̃``  — normalized Laplacian ``I − Ã``, whose eigenvalues live in [0, 2].

Normalized operators are memoized per ``(operator, ρ, self_loops)`` through
the instrumented LRU layer in :mod:`repro.runtime.cache` because every
filter re-uses the same propagation matrix across hops, epochs, and
(filter, scheme) sweep combinations. Memo traffic lands on the
``cache.norm_adj.{hit,miss,evict}`` telemetry counters, and the memo is
bypassed entirely while :func:`repro.runtime.cache.is_enabled` is false
(the bench ``--no-cache`` mode).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from ..runtime import cache as _cache


class Graph:
    """An undirected attributed graph backed by scipy CSR matrices.

    Parameters
    ----------
    adjacency:
        ``(n, n)`` sparse adjacency without self-loops. Symmetrized on
        construction unless ``assume_symmetric`` is set.
    features:
        Optional ``(n, F)`` node-attribute matrix.
    labels:
        Optional ``(n,)`` integer label vector.
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        assume_symmetric: bool = False,
        name: str = "graph",
    ):
        adjacency = adjacency.tocsr().astype(np.float32)
        if adjacency.shape[0] != adjacency.shape[1]:
            raise GraphError(f"adjacency must be square, got {adjacency.shape}")
        # Canonical first; then only a stored diagonal needs clearing. On an
        # empty one scipy's setdiag would still round-trip through COO and
        # re-sort every row.
        adjacency.sum_duplicates()
        if adjacency.diagonal().any():
            adjacency.setdiag(0)
        adjacency.eliminate_zeros()
        if not assume_symmetric:
            adjacency = adjacency.maximum(adjacency.T)
        self.adjacency: sp.csr_matrix = adjacency
        self.name = name
        self._norm_memo = _cache.norm_memo()

        n = adjacency.shape[0]
        if features is not None:
            features = np.asarray(features, dtype=np.float32)
            if features.shape[0] != n:
                raise GraphError(
                    f"features rows {features.shape[0]} != node count {n}"
                )
        if labels is not None:
            labels = np.asarray(labels)
            if labels.shape != (n,):
                raise GraphError(f"labels shape {labels.shape} != ({n},)")
        self.features = features
        self.labels = labels

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        features: Optional[np.ndarray] = None,
        labels: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an ``(E, 2)`` edge array (u, v pairs).

        Edges are undirected: each input pair contributes both directions.
        Duplicate edges collapse to weight 1.
        """
        edges = np.asarray(edges)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edges must be (E, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
            raise GraphError("edge endpoints out of range")
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        data = np.ones(rows.shape[0], dtype=np.float32)
        adjacency = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
        adjacency.data[:] = 1.0  # collapse duplicates
        return cls(adjacency, features=features, labels=labels,
                   assume_symmetric=True, name=name)

    # ------------------------------------------------------------------
    # basic statistics
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Directed edge count (each undirected edge counted twice)."""
        return int(self.adjacency.nnz)

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees without self-loops."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    @property
    def num_features(self) -> int:
        if self.features is None:
            raise GraphError("graph has no node features")
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise GraphError("graph has no labels")
        return int(self.labels.max()) + 1

    # ------------------------------------------------------------------
    # spectral operators
    # ------------------------------------------------------------------
    def normalized_adjacency(self, rho: float = 0.5, self_loops: bool = True) -> sp.csr_matrix:
        """Return ``Ã = D̄^(ρ-1) Ā D̄^(-ρ)`` (cached).

        ``ρ = 0.5`` gives the GCN symmetric normalization; ``ρ = 1`` the
        random-walk (row-stochastic transpose) form; ``ρ = 0`` the
        column-stochastic form. Isolated nodes keep a unit self-loop
        contribution when ``self_loops`` is true.
        """
        if not 0.0 <= rho <= 1.0:
            raise GraphError(f"normalization coefficient must be in [0, 1], got {rho}")
        key = ("adj", round(float(rho), 6), bool(self_loops))
        if not _cache.is_enabled():
            return self._build_normalized_adjacency(rho, self_loops)
        return self._norm_memo.get_or_compute(
            key, lambda: self._shared_norm(
                key, lambda: self._build_normalized_adjacency(rho,
                                                              self_loops)))

    def _build_normalized_adjacency(self, rho: float,
                                    self_loops: bool) -> sp.csr_matrix:
        if self_loops:
            adj = self.adjacency + sp.identity(self.num_nodes, format="csr", dtype=np.float32)
        else:
            adj = self.adjacency
        degree = np.asarray(adj.sum(axis=1)).ravel()
        degree = np.maximum(degree, 1e-12)
        left = sp.diags(degree ** (rho - 1.0))
        right = sp.diags(degree ** (-rho))
        return (left @ adj @ right).tocsr().astype(np.float32)

    def laplacian(self, rho: float = 0.5, self_loops: bool = True) -> sp.csr_matrix:
        """Return the normalized Laplacian ``L̃ = I − Ã`` (memoized)."""
        key = ("lap", round(float(rho), 6), bool(self_loops))
        if not _cache.is_enabled():
            return self._build_laplacian(rho, self_loops)
        return self._norm_memo.get_or_compute(
            key, lambda: self._shared_norm(
                key, lambda: self._build_laplacian(rho, self_loops)))

    def _shared_norm(self, key: tuple, builder) -> sp.csr_matrix:
        """Fall through to the cross-process term store before building.

        Pool workers synthesize content-identical graphs, so the first
        worker to normalize an operator publishes it and siblings map
        the same bytes instead of repeating the O(m) build. The
        fingerprint binds the memo key to the adjacency's full digest,
        so a different (or mutated) graph is never served a sibling's
        operator, even one with the same node and edge counts.
        """
        return _cache.shared_csr(
            "norm", lambda: (key, _cache.operator_digest(self.adjacency)),
            builder)

    def _build_laplacian(self, rho: float, self_loops: bool) -> sp.csr_matrix:
        identity = sp.identity(self.num_nodes, format="csr", dtype=np.float32)
        return (identity - self.normalized_adjacency(rho, self_loops)).tocsr()

    def norm_memo_stats(self) -> dict:
        """Traffic/occupancy snapshot of this graph's normalization memo."""
        return self._norm_memo.stats()

    # ------------------------------------------------------------------
    # structural utilities
    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Induced subgraph on ``nodes`` (used by the graph-partition scheme)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            raise GraphError(
                "cannot take the induced subgraph of an empty node set"
            )
        sub_adj = self.adjacency[nodes][:, nodes].tocsr()
        sub_features = self.features[nodes] if self.features is not None else None
        sub_labels = self.labels[nodes] if self.labels is not None else None
        return Graph(sub_adj, features=sub_features, labels=sub_labels,
                     assume_symmetric=True, name=f"{self.name}/sub{len(nodes)}")

    def edge_list(self) -> np.ndarray:
        """Return the unique undirected edges as an ``(E, 2)`` array, u < v."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return np.stack([coo.row, coo.col], axis=1)

    def memory_bytes(self) -> int:
        """Bytes held by the CSR topology (the O(m) term of Table 1)."""
        return int(
            self.adjacency.data.nbytes
            + self.adjacency.indices.nbytes
            + self.adjacency.indptr.nbytes
        )

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, n={self.num_nodes}, "
            f"m={self.num_edges}, features="
            f"{None if self.features is None else self.features.shape})"
        )
