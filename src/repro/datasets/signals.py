"""Spectral signal functions and regression targets (Table 7).

The signal-regression task (Section 6.1.3) fits a filter to a known
spectral transfer function g*: given an input signal x, the supervision is
``z = U g*(Λ) Uᵀ x`` computed by exact eigendecomposition. The five
functions here are exactly the paper's Table 7 columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..errors import DatasetError
from ..graph.graph import Graph
from ..spectral.decomposition import laplacian_eigendecomposition

SignalFunction = Callable[[np.ndarray], np.ndarray]

#: Table 7's five transfer functions over λ ∈ [0, 2].
SIGNAL_FUNCTIONS: Dict[str, SignalFunction] = {
    "band": lambda lam: np.exp(-10.0 * (lam - 1.0) ** 2),
    "combine": lambda lam: np.abs(np.sin(np.pi * lam)),
    "high": lambda lam: 1.0 - np.exp(-10.0 * lam ** 2),
    "low": lambda lam: np.exp(-10.0 * lam ** 2),
    "reject": lambda lam: 1.0 - np.exp(-10.0 * (lam - 1.0) ** 2),
}

SIGNAL_NAMES = list(SIGNAL_FUNCTIONS)

#: Independent signal channels F of one regression instance.
NUM_CHANNELS = 4


@dataclass(frozen=True)
class RegressionTask:
    """One signal-regression instance: input x, target z, and the spectrum."""

    name: str
    input_signal: np.ndarray   # (n, F)
    target_signal: np.ndarray  # (n, F)
    eigenvalues: np.ndarray    # (n,)


def make_regression_task(
    graph: Graph,
    signal_name: str,
    seed: int = 0,
    rho: float = 0.5,
) -> RegressionTask:
    """Build a fully-supervised regression pair (x, z = g* ∗ x).

    The input is white noise flattened across the spectrum so every
    frequency is represented; the target is its exact filtering by the
    chosen transfer function — computable only on graphs small enough for
    dense eigendecomposition.
    """
    func = SIGNAL_FUNCTIONS.get(signal_name)
    if func is None:
        raise DatasetError(
            f"unknown signal {signal_name!r}; known: {', '.join(SIGNAL_NAMES)}"
        )
    eigenvalues, eigenvectors = laplacian_eigendecomposition(graph, rho=rho)
    rng = np.random.default_rng(seed)
    # Uniform spectral content: coefficients ~ N(0,1) in the eigenbasis.
    spectral_coefficients = rng.normal(size=(graph.num_nodes, NUM_CHANNELS))
    input_signal = eigenvectors @ spectral_coefficients
    response = func(eigenvalues)
    target_signal = eigenvectors @ (response[:, None] * spectral_coefficients)
    return RegressionTask(
        name=signal_name,
        input_signal=input_signal.astype(np.float32),
        target_signal=target_signal.astype(np.float32),
        eigenvalues=eigenvalues,
    )
