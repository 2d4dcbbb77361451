"""Out-of-framework baselines for the implementation comparison (Table 6).

The paper contrasts its unified filters against models "deployed in other
popular frameworks": spatial message-passing GNNs (GCN, GraphSAGE),
spectral message-passing (ChebNet), and scalable graph transformers
(NAGphormer, ANS-GT). We rebuild each on the same substrate so the
comparison isolates architecture and backend, exactly as the table does:

- GCN / GraphSAGE / ChebNet: :class:`~repro.models.iterative.IterativeModel`
  configurations, runnable on both the ``csr`` (SP) and ``coo_gather`` (EI)
  propagation backends.
- NAGphormer-lite: hop2token — precompute K+1 hop features per node, embed
  as a token sequence, run a small transformer, attention-pool, classify.
  Captures the long-precompute / per-node-sequence cost profile.
- ANSGT-lite: adaptive-node-sampling transformer — per node, a token set of
  itself plus sampled neighbours and sampled global anchors, attention over
  the set. Captures the sampling + quadratic-attention cost profile that
  makes ANS-GT the slowest entry of Table 6.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.sparse import spmm_numpy
from ..autodiff.tensor import Tensor
from ..graph.graph import Graph
from ..nn.attention import TransformerBlock
from ..nn.linear import MLP, Linear
from ..nn.module import Module
from .iterative import (
    CHEB_ORDER,
    IterativeModel,
    cheb_propagation,
    gcn_propagation,
    sage_propagation,
)


#: ANS-GT-lite's token set per target node: sampled neighbours and
#: sampled global anchors besides the node itself.
ANSGT_NEIGHBORS = 4
ANSGT_ANCHORS = 4
#: NAGphormer-lite's hop count K: each node is a sequence of K + 1 tokens.
NAGPHORMER_HOPS = 4
#: Dropout of both transformer baselines.
TRANSFORMER_DROPOUT = 0.1


def make_gcn(in_features: int, out_features: int, hidden: int = 64,
             dropout: float = 0.5, backend: str = "csr",
             rng: Optional[np.random.Generator] = None) -> IterativeModel:
    """Two-layer GCN (Kipf & Welling) on the chosen backend."""
    return IterativeModel(in_features, out_features, gcn_propagation(),
                          width_multiplier=1, hidden=hidden, dropout=dropout,
                          backend=backend, rng=rng)


def make_graphsage(in_features: int, out_features: int, hidden: int = 64,
                   dropout: float = 0.5, backend: str = "csr",
                   rng: Optional[np.random.Generator] = None) -> IterativeModel:
    """GraphSAGE-mean with self/neighbour concatenation."""
    return IterativeModel(in_features, out_features, sage_propagation(),
                          width_multiplier=2, hidden=hidden, dropout=dropout,
                          backend=backend, rng=rng)


def make_chebnet(in_features: int, out_features: int, hidden: int = 64,
                 dropout: float = 0.5, backend: str = "csr",
                 rng: Optional[np.random.Generator] = None) -> IterativeModel:
    """Iterative ChebNet with per-layer order-``CHEB_ORDER`` Chebyshev
    stacks."""
    return IterativeModel(in_features, out_features, cheb_propagation(),
                          width_multiplier=CHEB_ORDER + 1, hidden=hidden,
                          dropout=dropout, backend=backend, rng=rng)


class NAGphormerLite(Module):
    """Hop2Token graph transformer (Chen et al., simplified to one head).

    ``precompute_tokens`` builds the (n, K+1, F) hop-feature tensor — the
    expensive CPU stage Table 6 reports separately — and the forward pass
    is a per-node transformer over that short token sequence, trained on
    row mini-batches.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embed = Linear(in_features, hidden, rng=rng)
        self.block = TransformerBlock(hidden, dropout=TRANSFORMER_DROPOUT,
                                      rng=rng)
        self.pool_query = Linear(hidden, 1, rng=rng)
        self.head = MLP(hidden, out_features, hidden=hidden, num_layers=2,
                        dropout=TRANSFORMER_DROPOUT, rng=rng)

    def precompute_tokens(self, graph: Graph, rho: float = 0.5) -> np.ndarray:
        """Hop2Token: stack ``Ã^k X`` for k = 0..K as per-node sequences."""
        adjacency = graph.normalized_adjacency(rho)
        tokens = [graph.features.astype(np.float32)]
        for _ in range(NAGPHORMER_HOPS):
            tokens.append(spmm_numpy(adjacency, tokens[-1]))
        return np.stack(tokens, axis=1)

    def forward(self, tokens: Tensor) -> Tensor:
        """Classify a (B, K+1, F) batch of token sequences."""
        b, t, _ = tokens.shape
        embedded = self.embed(tokens.reshape(b * t, -1)).reshape(b, t, -1)
        encoded = self.block(embedded)
        scores = self.pool_query(encoded.reshape(b * t, -1)).reshape(b, t)
        weights = F.softmax(scores, axis=1).reshape(b, t, 1)
        pooled = (encoded * weights).sum(axis=1)
        return self.head(pooled)


class ANSGTLite(Module):
    """Adaptive-node-sampling graph transformer (Zhang et al., simplified).

    For every target node the token set is [self] + sampled neighbours +
    sampled global anchors; a transformer block attends over it. Sampling
    happens per batch (``sample_tokens``), which is what makes the real
    ANS-GT's training loop so much slower than decoupled models.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden: int = 64,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self._rng = rng
        self.embed = Linear(in_features, hidden, rng=rng)
        self.block = TransformerBlock(hidden, dropout=TRANSFORMER_DROPOUT,
                                      rng=rng)
        self.head = MLP(hidden, out_features, hidden=hidden, num_layers=2,
                        dropout=TRANSFORMER_DROPOUT, rng=rng)

    def sample_tokens(self, graph: Graph, nodes: np.ndarray) -> np.ndarray:
        """Token features (B, 1+neighbours+anchors, F) for a node batch."""
        features = graph.features
        indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
        batch = []
        anchors = self._rng.integers(0, graph.num_nodes, size=ANSGT_ANCHORS)
        for node in nodes:
            neighbours = indices[indptr[node]:indptr[node + 1]]
            if neighbours.size:
                picked = self._rng.choice(neighbours, size=ANSGT_NEIGHBORS)
            else:
                picked = np.full(ANSGT_NEIGHBORS, node)
            token_ids = np.concatenate([[node], picked, anchors])
            batch.append(features[token_ids])
        return np.stack(batch, axis=0).astype(np.float32)

    def forward(self, tokens: Tensor) -> Tensor:
        """Classify a (B, T, F) batch of sampled token sets."""
        b, t, _ = tokens.shape
        embedded = self.embed(tokens.reshape(b * t, -1)).reshape(b, t, -1)
        encoded = self.block(embedded)
        pooled = encoded[:, 0, :]  # the target node's token
        return self.head(pooled)
