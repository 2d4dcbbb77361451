"""The iterative architecture: propagation and transformation interleaved.

Spatial GNNs in the paper's framing (Appendix A.1) apply one hop of
propagation followed by a learnable transformation per layer:
``H^(j+1) = φ( f(Ã) · H^(j) )``. :class:`IterativeModel` implements that
generic stack, parameterized by a per-layer propagation rule; the Table 6
baselines in :mod:`repro.models.baselines` are thin configurations of it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.sparse import spmm
from ..autodiff.tensor import Tensor, concatenate
from ..errors import TrainingError
from ..graph.graph import Graph
from ..nn.linear import Linear
from ..nn.module import Module, ModuleList

# A propagation rule maps (graph, layer_input, backend) -> propagated tensor.
PropagationRule = Callable[[Graph, Tensor, str], Tensor]

#: Chebyshev order K of the ChebNet baseline's per-layer stack.
CHEB_ORDER = 2
#: Depth J of every iterative baseline.
NUM_LAYERS = 2


def gcn_propagation() -> PropagationRule:
    """One hop of ``Ã H`` with the GCN normalization (ρ = 0.5)."""

    def rule(graph: Graph, h: Tensor, backend: str) -> Tensor:
        return spmm(graph.normalized_adjacency(0.5), h, backend=backend)

    return rule


def sage_propagation() -> PropagationRule:
    """GraphSAGE mean aggregation: concat(h, mean-neighbour(h))."""

    def rule(graph: Graph, h: Tensor, backend: str) -> Tensor:
        mean_adj = graph.normalized_adjacency(rho=1.0, self_loops=False)
        aggregated = spmm(mean_adj, h, backend=backend)
        return concatenate([h, aggregated], axis=1)

    return rule


def cheb_propagation() -> PropagationRule:
    """Order-``CHEB_ORDER`` Chebyshev layer: concat of T_k(L̂) h for
    k ≤ ``CHEB_ORDER``, with L̂ at ρ = 0.5."""

    def rule(graph: Graph, h: Tensor, backend: str) -> Tensor:
        adjacency = graph.normalized_adjacency(0.5)
        terms = [h, -spmm(adjacency, h, backend=backend)]
        for _ in range(2, CHEB_ORDER + 1):
            nxt = -spmm(adjacency, terms[-1], backend=backend) * 2.0 - terms[-2]
            terms.append(nxt)
        return concatenate(terms, axis=1)

    return rule


class IterativeModel(Module):
    """``NUM_LAYERS`` layers of propagate-then-transform with ReLU and
    dropout.

    Parameters
    ----------
    propagation:
        Per-layer propagation rule (see module-level factories).
    width_multiplier:
        Output width of the rule relative to its input (1 for GCN, 2 for
        SAGE's concat, order+1 for Chebyshev).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        propagation: PropagationRule,
        width_multiplier: int = 1,
        hidden: int = 64,
        dropout: float = 0.5,
        backend: str = "csr",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.propagation = propagation
        self.backend = backend
        self.dropout = float(dropout)
        self._rng = rng
        self.layers = ModuleList()
        width = in_features
        for layer_index in range(NUM_LAYERS):
            out = out_features if layer_index == NUM_LAYERS - 1 else hidden
            self.layers.append(Linear(width * width_multiplier, out, rng=rng))
            width = out

    def forward(self, graph: Graph, x: Optional[Tensor] = None) -> Tensor:
        if x is None:
            if graph.features is None:
                raise TrainingError("graph has no features and none were passed")
            x = Tensor(graph.features)
        h = x
        for index, layer in enumerate(self.layers):
            h = F.dropout(h, self.dropout, training=self.training, rng=self._rng)
            h = self.propagation(graph, h, self.backend)
            h = layer(h)
            if index < len(self.layers) - 1:
                h = h.relu()
        return h
