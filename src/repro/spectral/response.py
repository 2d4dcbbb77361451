"""Frequency-response utilities connecting filters to graph spectra.

A filter's effectiveness, the paper argues (RQ6/C3), is determined by how
its frequency response aligns with where the task's signal lives on the
spectrum. These helpers evaluate responses on grids or exact spectra and
quantify that alignment.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..filters.base import SpectralFilter
from ..graph.graph import Graph
from .decomposition import laplacian_eigendecomposition


def response_on_grid(
    filter_: SpectralFilter,
    num_points: int = 101,
    params: Optional[Dict[str, np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate ``g(λ)`` on a uniform grid over the spectrum [0, 2]."""
    lams = np.linspace(0.0, 2.0, num_points)
    return lams, filter_.response(lams, params)


def response_alignment(
    filter_: SpectralFilter,
    graph: Graph,
    signal: np.ndarray,
    params: Optional[Dict[str, np.ndarray]] = None,
    rho: float = 0.5,
) -> float:
    """Cosine alignment between |g(λ)| and a signal's spectral energy.

    Decomposes the signal in the Laplacian eigenbasis, takes per-frequency
    energies, and measures how well the filter's magnitude response covers
    them. Values near 1 indicate the filter passes exactly the frequencies
    the signal occupies.
    """
    eigenvalues, eigenvectors = laplacian_eigendecomposition(graph, rho)
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    coefficients = eigenvectors.T @ signal
    energy = (coefficients ** 2).sum(axis=1)
    magnitude = np.abs(filter_.response(eigenvalues, params))
    num = float((magnitude * energy).sum())
    den = float(np.linalg.norm(magnitude) * np.linalg.norm(energy))
    return num / den if den > 0 else 0.0
