"""Graph-level measures used throughout the benchmark.

Implements the node-homophily score of Pei et al. (the ``H`` column of the
paper's Table 3) and degree-group assignment for the degree-specific
evaluation (Section 6.3).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

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


def _resolve_labels(graph: Graph, labels: np.ndarray | None) -> np.ndarray:
    if labels is None:
        labels = graph.labels
    if labels is None:
        raise GraphError("labels required but not provided")
    return np.asarray(labels)
