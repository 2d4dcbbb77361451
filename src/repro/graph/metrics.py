"""Graph-level measures used throughout the benchmark.

Implements the node-homophily score of Pei et al. (the ``H`` column of the
paper's Table 3), edge homophily, degree-group assignment for the
degree-specific evaluation (Section 6.3), and the Rayleigh quotient used to
summarize how high-frequency a signal is with respect to a graph.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import GraphError
from .graph import Graph


def node_homophily(graph: Graph, labels: np.ndarray | None = None) -> float:
    """Average fraction of same-label neighbours per node.

    ``H = (1/n) Σ_u |{v ∈ N(u) : y(v) = y(u)}| / |N(u)|``; isolated nodes
    are skipped. Values near 1 indicate homophily, near 0 heterophily.
    """
    labels = _resolve_labels(graph, labels)
    adj = graph.adjacency.tocoo()
    same = (labels[adj.row] == labels[adj.col]).astype(np.float64)
    same_counts = np.bincount(adj.row, weights=same, minlength=graph.num_nodes)
    degrees = graph.degrees
    mask = degrees > 0
    if not mask.any():
        raise GraphError("homophily undefined on an edgeless graph")
    return float((same_counts[mask] / degrees[mask]).mean())


def edge_homophily(graph: Graph, labels: np.ndarray | None = None) -> float:
    """Fraction of edges joining same-label endpoints."""
    labels = _resolve_labels(graph, labels)
    adj = graph.adjacency.tocoo()
    if adj.nnz == 0:
        raise GraphError("homophily undefined on an edgeless graph")
    return float((labels[adj.row] == labels[adj.col]).mean())


def degree_groups(graph: Graph, quantile: float = 0.5) -> Tuple[np.ndarray, np.ndarray]:
    """Split nodes into (high-degree, low-degree) index arrays.

    Nodes at or above the ``quantile`` of the degree distribution form the
    high-degree group — the grouping behind Figure 9's accuracy gaps.
    """
    degrees = graph.degrees
    threshold = np.quantile(degrees, quantile)
    high = np.flatnonzero(degrees >= threshold)
    low = np.flatnonzero(degrees < threshold)
    return high, low


def rayleigh_quotient(graph: Graph, signal: np.ndarray, rho: float = 0.5) -> float:
    """Spectral-frequency summary ``xᵀ L̃ x / xᵀ x`` of a node signal.

    Small values mean the signal is smooth over edges (low-frequency);
    values approaching 2 indicate an oscillatory, high-frequency signal.
    For a multi-column signal the column-mean quotient is returned.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    if signal.shape[0] != graph.num_nodes:
        raise GraphError(
            f"signal has {signal.shape[0]} rows for {graph.num_nodes} nodes"
        )
    laplacian = graph.laplacian(rho)
    numerator = np.einsum("nf,nf->f", signal, laplacian @ signal)
    denominator = np.einsum("nf,nf->f", signal, signal)
    denominator = np.maximum(denominator, 1e-12)
    return float(np.mean(numerator / denominator))


def _resolve_labels(graph: Graph, labels: np.ndarray | None) -> np.ndarray:
    if labels is None:
        labels = graph.labels
    if labels is None:
        raise GraphError("labels required but not provided")
    return np.asarray(labels)
