"""Linear layers and the MLP transformations φ0 / φ1 of the paper.

The decoupled architecture (Appendix A.1) is ``H = φ1(g(L̃) · φ0(X))`` where
φ0 and φ1 are plain MLPs. :class:`MLP` matches that role: configurable depth
(0 layers = identity, the mini-batch φ0 setting in Table 4), hidden width F,
ReLU activations, and inverted dropout between layers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff import init
from ..autodiff.tensor import Tensor
from .module import Module, ModuleList, Parameter


class Linear(Module):
    """Affine map ``x @ W + b`` with Glorot-uniform weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class MLP(Module):
    """Multi-layer perceptron with ReLU and dropout; depth 0 = identity.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    hidden:
        Hidden width F for intermediate layers.
    num_layers:
        Number of linear layers. ``0`` returns the input unchanged (the
        mini-batch scheme's φ0), ``1`` is a single affine map.
    dropout:
        Probability applied before every linear layer.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden: int = 64,
        num_layers: int = 1,
        dropout: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.dropout = float(dropout)
        self.num_layers = int(num_layers)
        self._rng = rng
        self.layers = ModuleList()
        if self.num_layers == 1:
            self.layers.append(Linear(in_features, out_features, rng=rng))
        elif self.num_layers >= 2:
            self.layers.append(Linear(in_features, hidden, rng=rng))
            for _ in range(self.num_layers - 2):
                self.layers.append(Linear(hidden, hidden, rng=rng))
            self.layers.append(Linear(hidden, out_features, rng=rng))

    def forward(self, x: Tensor) -> Tensor:
        if self.num_layers == 0:
            return x
        for index, layer in enumerate(self.layers):
            x = F.dropout(x, self.dropout, training=self.training, rng=self._rng)
            x = layer(x)
            if index < len(self.layers) - 1:
                x = x.relu()
        return x

    def __repr__(self) -> str:
        return f"MLP(layers={self.num_layers}, dropout={self.dropout})"
