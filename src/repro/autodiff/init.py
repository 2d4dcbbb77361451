"""Parameter initializers.

All initializers take an explicit :class:`numpy.random.Generator` so every
training run in the benchmark is reproducible from a single seed, matching
the paper's protocol of 10 seeded runs per configuration.
"""

from __future__ import annotations

import numpy as np


def zeros(shape: tuple, dtype=np.float32) -> np.ndarray:
    """All-zero initialization (biases, filter residual params)."""
    return np.zeros(shape, dtype=dtype)


def ones(shape: tuple, dtype=np.float32) -> np.ndarray:
    """All-one initialization (scale parameters)."""
    return np.ones(shape, dtype=dtype)


def constant(shape: tuple, value: float, dtype=np.float32) -> np.ndarray:
    """Constant-fill initialization (fixed-filter coefficient warm starts)."""
    return np.full(shape, value, dtype=dtype)


def glorot_uniform(shape: tuple, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Glorot / Xavier uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def uniform(shape: tuple, rng: np.random.Generator, low: float = -1.0, high: float = 1.0,
            dtype=np.float32) -> np.ndarray:
    """Plain uniform initialization over ``[low, high)``."""
    return rng.uniform(low, high, size=shape).astype(dtype)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
