"""Spectral analysis: decomposition, frequency response, visualization."""

from .decomposition import (
    EIG_CACHE_ENTRIES,
    MAX_DENSE_NODES,
    clear_eig_cache,
    laplacian_eigendecomposition,
)
from .response import response_alignment, response_on_grid
from .tsne import cluster_separation, tsne

__all__ = [
    "laplacian_eigendecomposition",
    "MAX_DENSE_NODES",
    "EIG_CACHE_ENTRIES",
    "clear_eig_cache",
    "response_on_grid",
    "response_alignment",
    "tsne",
    "cluster_separation",
]
