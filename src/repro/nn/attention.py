"""Scaled dot-product attention for the graph-transformer baselines.

NAGphormer tokenizes each node's K-hop neighbourhood into a short sequence
of hop features and runs a small transformer over it. Only single-head
attention over a (B, T, D) batch is needed for that baseline, so this module
implements exactly that, plus the residual/MLP transformer block.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.tensor import Tensor
from .linear import Linear
from .module import Module


class SelfAttention(Module):
    """Single-head self-attention over (batch, tokens, dim) tensors."""

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.dim = dim
        self.query = Linear(dim, dim, rng=rng)
        self.key = Linear(dim, dim, rng=rng)
        self.value = Linear(dim, dim, rng=rng)
        self.out = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        q = self.query(x)
        k = self.key(x)
        v = self.value(x)
        scores = (q @ k.transpose((0, 2, 1))) * (1.0 / np.sqrt(self.dim))
        weights = F.softmax(scores, axis=-1)
        attended = weights @ v
        return self.out(attended)


class TransformerBlock(Module):
    """Pre-norm-free transformer block: attention + MLP, both residual."""

    def __init__(
        self,
        dim: int,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden = 2 * dim
        self.attention = SelfAttention(dim, rng=rng)
        self.expand = Linear(dim, hidden, rng=rng)
        self.project = Linear(hidden, dim, rng=rng)
        self.dropout = float(dropout)
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attention(x)
        hidden = self.expand(x).relu()
        hidden = F.dropout(hidden, self.dropout, training=self.training, rng=self._rng)
        return x + self.project(hidden)
