"""The Table 6 out-of-framework baselines as placements of the one loop.

These models do not fit the decoupled architecture, but they train the
way the schemes do: the iterative message-passing baselines are the
full-batch placement around a different model, and the graph transformers
are the mini-batch placement over per-node token sequences with their own
precompute/sampling stages. The same loop times and meters both sides of
the comparison. Each runner returns one Table 6 row.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

import numpy as np

from ..autodiff.tensor import Tensor
from ..datasets.splits import Split
from ..errors import TrainingError
from ..graph.graph import Graph
from ..models.baselines import (
    ANSGTLite,
    NAGphormerLite,
    make_chebnet,
    make_gcn,
    make_graphsage,
)
from ..nn.module import Module
from ..runtime.profiler import StageProfiler
from ..training.loop import RunResult, TrainConfig, make_device
from ..training.schemes import FullBatchTrainer, MiniBatchTrainer

_ITERATIVE_FACTORIES = {
    "GCN": make_gcn,
    "GraphSAGE": make_graphsage,
    "ChebNet": make_chebnet,
}

#: Table 6's backend labels: SP = torch.sparse analogue, EI = EdgeIndex.
BACKEND_LABELS = {"csr": "SP", "coo_gather": "EI"}


def _row(model: str, backend: str, result: RunResult) -> Dict:
    return {"model": model, "backend": backend, "status": result.status,
            "accuracy": result.test_score,
            **result.columns("precompute_s", "train_s_per_epoch",
                             "inference_s", "device_bytes")}


class _IterativeTrainer(FullBatchTrainer):
    """Full batch around a per-layer propagation model; never validates."""

    validates = False

    def __init__(self, device, factory, backend: str):
        super().__init__(device)
        self.factory, self.backend = factory, backend

    def build_model(self) -> Module:
        config, graph = self.config, self.graph
        return self.factory(graph.num_features, graph.num_classes,
                            hidden=config.hidden, dropout=config.dropout,
                            backend=self.backend, rng=config.rng())


def train_iterative_baseline(
    model_name: str,
    graph: Graph,
    split: Split,
    config: TrainConfig,
    backend: str = "csr",
    device_capacity_gib: Optional[float] = None,
) -> Dict:
    """Full-batch training of GCN / GraphSAGE / ChebNet on one backend."""
    factory = _ITERATIVE_FACTORIES.get(model_name)
    if factory is None:
        raise TrainingError(f"unknown baseline {model_name!r}")
    device = make_device(device_capacity_gib, name=f"{model_name}-{backend}")
    result = _IterativeTrainer(device, factory, backend).fit(
        graph, split, None, config)
    return _row(model_name, BACKEND_LABELS.get(backend, backend), result)


class _NAGphormerTrainer(MiniBatchTrainer):
    """Mini batch over per-node token sequences: hop2token sequences are
    precomputed once and stay in host RAM, each epoch draws a fresh
    permutation of the training nodes, inference covers the test nodes."""

    validates = False

    def build(self, profiler: StageProfiler) -> Module:
        config, graph = self.config, self.graph
        model = NAGphormerLite(graph.num_features, graph.num_classes,
                               hidden=config.hidden, rng=self.rng)
        with profiler.stage("precompute", op_class="propagation"):
            self.channels = model.precompute_tokens(graph, rho=config.rho)
        return model

    def epoch_index(self) -> np.ndarray:
        train = self.split.train
        return train[self.rng.permutation(len(train))]

    def test_set(self):
        return self.split.test, slice(None), self.labels[self.split.test]


class _ANSGTTrainer(_NAGphormerTrainer):
    """The same, but tokens are sampled per batch, inside the epoch —
    ANS-GT's cost profile — so there is no precompute stage."""

    def build(self, profiler: StageProfiler) -> Module:
        return ANSGTLite(self.graph.num_features, self.graph.num_classes,
                         hidden=self.config.hidden, rng=self.rng)

    def forward(self, index: np.ndarray) -> Tensor:
        return self.model(Tensor(self.model.sample_tokens(self.graph, index)))


def train_nagphormer(
    graph: Graph,
    split: Split,
    config: TrainConfig,
    device_capacity_gib: Optional[float] = None,
) -> Dict:
    """NAGphormer-lite: hop2token precompute + transformer mini-batches."""
    device = make_device(device_capacity_gib, name="nagphormer")
    config = replace(config, batch_size=min(config.batch_size, 512))
    result = _NAGphormerTrainer(device).fit(graph, split, None, config)
    return _row("NAGphormer", "EI", result)


def train_ansgt(
    graph: Graph,
    split: Split,
    config: TrainConfig,
    device_capacity_gib: Optional[float] = None,
) -> Dict:
    """ANSGT-lite: per-batch adaptive token sampling + transformer."""
    device = make_device(device_capacity_gib, name="ansgt")
    config = replace(config, batch_size=min(config.batch_size, 256))
    result = _ANSGTTrainer(device).fit(graph, split, None, config)
    return _row("ANS-GT", "EI", result)
