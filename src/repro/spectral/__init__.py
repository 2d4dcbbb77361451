"""Spectral analysis: decomposition, frequency response, visualization."""

from .decomposition import (
    EIG_CACHE_ENTRIES,
    MAX_DENSE_NODES,
    clear_eig_cache,
    eig_cache_stats,
    extremal_eigenvalues,
    laplacian_eigendecomposition,
)
from .response import response_alignment, response_on_grid
from .tsne import cluster_separation, tsne

__all__ = [
    "laplacian_eigendecomposition",
    "extremal_eigenvalues",
    "MAX_DENSE_NODES",
    "EIG_CACHE_ENTRIES",
    "clear_eig_cache",
    "eig_cache_stats",
    "response_on_grid",
    "response_alignment",
    "tsne",
    "cluster_separation",
]
