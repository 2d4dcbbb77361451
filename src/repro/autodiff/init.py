"""Parameter initializers.

All initializers take an explicit :class:`numpy.random.Generator` so every
training run in the benchmark is reproducible from a single seed, matching
the paper's protocol of 10 seeded runs per configuration.
"""

from __future__ import annotations

import numpy as np


def zeros(shape: tuple) -> np.ndarray:
    """All-zero float32 initialization (biases)."""
    return np.zeros(shape, dtype=np.float32)


def glorot_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Float32 Glorot / Xavier uniform: U(-a, a),
    a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def _fans(shape: tuple) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
