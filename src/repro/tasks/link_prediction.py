"""Link prediction under the mini-batch scheme (Section 6.1.2, Figure 6).

The paper's point: link prediction *forces* mini-batch training — the
model scores κ·m positive/negative node pairs per epoch, so the
transformation cost O(κmF²) dominates and full-scale device residency is
prohibitive. The pipeline here mirrors that: filter channels are
precomputed once on CPU, then an MLP scores Hadamard products of node
embeddings over edge batches.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.tensor import Tensor
from ..datasets.splits import edge_split
from ..errors import TrainingError
from ..filters.base import SpectralFilter
from ..graph.graph import Graph
from ..models.decoupled import MiniBatchModel
from ..nn.linear import MLP
from ..nn.module import Module
from ..runtime.profiler import StageProfiler
from ..training.loop import RunResult, TrainConfig, make_device
from ..training.schemes import MiniBatchTrainer
from .node_classification import build_task_filter


class LinkPredictor(Module):
    """Combine precomputed channels into embeddings, score node pairs.

    ``forward`` takes two (B, C, F) channel batches (edge endpoints) and
    returns one logit per pair via an MLP on the Hadamard product of the
    endpoint embeddings — the paper's "simple MLP network" downstream
    module.
    """

    def __init__(self, filter_: SpectralFilter, in_features: int,
                 hidden: int = 64, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.encoder = MiniBatchModel(
            filter_, in_features=in_features, out_features=hidden,
            hidden=hidden, phi1_layers=1, dropout=dropout, rng=rng)
        self.scorer = MLP(hidden, 1, hidden=hidden, num_layers=2,
                          dropout=dropout, rng=rng)

    def forward(self, source_batch: Tensor, target_batch: Tensor) -> Tensor:
        source = self.encoder(source_batch)
        target = self.encoder(target_batch)
        return self.scorer(source * target).reshape(-1)


def _with_negatives(rng: np.random.Generator, num_nodes: int,
                    edges: np.ndarray, ratio: int):
    """``edges`` followed by ``ratio`` uniform negative pairs (u ≠ v) each,
    and their 1/0 targets; collisions with real edges are rare on sparse
    graphs and standard practice tolerates them."""
    count = ratio * len(edges)
    sources = rng.integers(0, num_nodes, size=count)
    targets = rng.integers(0, num_nodes, size=count)
    clash = sources == targets
    targets[clash] = (targets[clash] + 1) % num_nodes
    pairs = np.concatenate([edges, np.stack([sources, targets], axis=1)])
    return pairs, np.concatenate([np.ones(len(edges), dtype=np.float32),
                                  np.zeros(count, dtype=np.float32)])


class LinkPredictionTrainer(MiniBatchTrainer):
    """The mini-batch placement with node *pairs* as its index space.

    Same CPU precompute and host-resident channels; the split holds edges,
    a batch is κ+1 pairs per training edge, and the model sees both
    endpoints' rows. There is no validation set.
    """

    validates = False

    def __init__(self, device, kappa: int):
        super().__init__(device)
        self.kappa = kappa

    def build(self, profiler: StageProfiler) -> Module:
        self.precompute(profiler)
        return LinkPredictor(
            self.filter, in_features=self.graph.num_features,
            hidden=self.config.hidden, dropout=self.config.dropout, rng=self.rng)

    def forward(self, pairs: np.ndarray) -> Tensor:
        return self.model(Tensor(self.channels[pairs[:, 0]]),
                          Tensor(self.channels[pairs[:, 1]]))

    def loss(self, edges: np.ndarray) -> Tensor:
        pairs, targets = _with_negatives(
            self.rng, self.graph.num_nodes, edges, self.kappa)
        return F.binary_cross_entropy_with_logits(self.forward(pairs), targets)

    def test_set(self):
        pairs, targets = _with_negatives(
            self.rng, self.graph.num_nodes, self.split.test, 1)
        return pairs, slice(None), targets.astype(int)


def run_link_prediction(
    graph: Graph,
    filter_name: str,
    config: Optional[TrainConfig] = None,
    kappa: int = 2,
    num_hops: int = 10,
    device_capacity_gib: Optional[float] = None,
) -> RunResult:
    """Train and evaluate MB link prediction with one spectral filter.

    ``test_score`` is the ROC AUC over the held-out edges and as many
    sampled non-edges, whatever ``config.metric`` says.

    Parameters
    ----------
    kappa:
        Negative-sampling ratio; the paper's κ ∈ [2, 10] multiplies the
        per-epoch transformation volume.
    """
    if kappa < 1:
        raise TrainingError(f"kappa must be >= 1, got {kappa}")
    config = replace(config or TrainConfig(), metric="roc_auc")
    filter_ = build_task_filter(filter_name, graph, config, "mini_batch",
                                num_hops=num_hops)
    train_edges, _, test_edges = edge_split(graph.edge_list(), seed=config.seed)
    trainer = LinkPredictionTrainer(
        make_device(device_capacity_gib, name="lp-device"), kappa)
    return trainer.fit(graph, SimpleNamespace(train=train_edges, test=test_edges),
                       filter_, config)
