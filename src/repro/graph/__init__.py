"""Graph substrate: CSR topology, normalization, metrics, partitioning."""

from .families import (
    FAMILIES,
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
from .graph import Graph
from .metrics import (
    degree_groups,
    node_homophily,
)
from .partition import bfs_partition, cut_edges

__all__ = [
    "Graph",
    "node_homophily",
    "degree_groups",
    "bfs_partition",
    "cut_edges",
    "cycle_graph",
    "cycle_spectrum",
    "path_graph",
    "complete_graph",
    "complete_spectrum",
    "star_graph",
    "star_spectrum",
    "grid_graph",
    "barbell_graph",
    "FAMILIES",
]
