"""The three learning schemes: full-batch, mini-batch, graph partition.

This module is the executable form of the paper's Figure 1:

- **Full-batch (FB)** — graph topology, features, and weights all live on
  the device; every epoch re-runs propagation inside the autodiff graph.
  Peak device memory grows with n and m, which is what OOMs past the
  million scale.
- **Mini-batch (MB)** — the spectral specialization: graph operations run
  once on CPU (precompute stage), the resulting O(nCF) channel tensor
  stays in host RAM, and training streams row batches to the device. The
  device footprint is independent of graph size.
- **Graph partition (GP)** — the model-agnostic fallback: BFS clusters are
  trained as independent subgraphs, bounding memory at the price of the
  severed cross-cluster edges.

Each trainer is a :class:`~repro.training.loop.Placement`, and ``fit``
hands it to the one loop, :func:`~repro.training.loop.run_training`, which
returns a :class:`~repro.training.loop.RunResult` with per-stage timings,
RAM / device peaks, and ``status="oom"`` when the simulated device capacity
is exceeded — the harness prints those as the paper's ``(OOM)`` cells.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Iterator, Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.tensor import Tensor, no_grad
from ..errors import TrainingError
from ..filters.base import SpectralFilter
from ..graph.graph import Graph
from ..graph.partition import bfs_partition, cut_edges
from ..models.decoupled import DecoupledModel, MiniBatchModel
from ..nn.module import Module
from ..runtime.device import DeviceModel, nbytes_of
from ..runtime.profiler import StageProfiler
from .loop import Placement, RunResult, TrainConfig, parameters_bytes


def _decoupled_model(filter_: SpectralFilter, graph: Graph,
                     config: TrainConfig, rng) -> DecoupledModel:
    return DecoupledModel(
        filter_, in_features=graph.num_features,
        out_features=graph.num_classes, hidden=config.hidden,
        phi0_layers=config.phi0_layers, phi1_layers=config.phi1_layers,
        dropout=config.dropout, rho=config.rho, backend=config.backend,
        rng=rng)


def batches(index: np.ndarray, batch_size: int) -> Iterator[np.ndarray]:
    """Consecutive ``batch_size`` slices of ``index`` (the last may be short)."""
    for start in range(0, len(index), batch_size):
        yield index[start:start + batch_size]


class FullBatchTrainer(Placement):
    """Full-batch training of the decoupled architecture."""

    device_name = "fb-device"

    def build_model(self) -> Module:
        return _decoupled_model(self.filter, self.graph, self.config,
                                self.config.rng())

    def setup(self, run: RunResult) -> Module:
        graph = self.graph
        self.model = self.build_model()
        adjacency = graph.normalized_adjacency(self.config.rho)
        self.device.to_device(adjacency)
        self.device.to_device(graph.features)
        self.device.to_device(parameters_bytes(self.model))
        run.profiler.record_ram(
            "train", nbytes_of(adjacency) + graph.features.nbytes)
        self.features = Tensor(graph.features)
        return self.model

    def loss(self) -> Tensor:
        train = self.split.train
        logits = self.model(self.graph, self.features)
        return F.cross_entropy(logits[train], self.labels[train])

    def steps(self, epoch: int):
        yield nullcontext(), self.loss

    def predict(self, index: np.ndarray) -> np.ndarray:
        with no_grad(), self.device.step():
            return self.model(self.graph, self.features).data[index]


class MiniBatchTrainer(Placement):
    """Decoupled mini-batch training over precomputed filter channels.

    Subclasses re-point the placement at other per-row tensors
    (:meth:`build`, :meth:`forward`, :meth:`loss`).
    """

    device_name = "mb-device"
    op_class = "transform"

    def precompute(self, profiler: StageProfiler) -> None:
        """Graph ops happen exactly once, on CPU. The propagation matrix is
        built here and reused for the RAM accounting instead of re-deriving
        it just to size it. Inside an enclosing planner scope (a sweep or a
        pooled cell) the basis chains are served from, and left in, the
        sweep's planner for the next filter; a standalone fit opens no scope
        and streams, holding the channels plus the recurrence's live terms."""
        config, graph = self.config, self.graph
        with profiler.stage("precompute", op_class="propagation"):
            propagation = graph.normalized_adjacency(config.rho)
            self.channels = self.filter.precompute(
                graph, graph.features, rho=config.rho, backend=config.backend)
        profiler.record_ram(
            "precompute", self.channels.nbytes + nbytes_of(propagation))

    def build(self, profiler: StageProfiler) -> Module:
        """Fill ``self.channels`` and build the model, in RNG draw order."""
        config, graph = self.config, self.graph
        self.precompute(profiler)
        return MiniBatchModel(
            self.filter, in_features=graph.num_features,
            out_features=graph.num_classes, hidden=config.hidden,
            phi1_layers=max(config.phi1_layers, 1), dropout=config.dropout,
            rng=self.rng)

    def setup(self, run: RunResult) -> Module:
        self.rng = self.config.rng()
        self.model = self.build(run.profiler)
        self.device.to_device(parameters_bytes(self.model))
        self.train_index = self.split.train.copy()
        return self.model

    def forward(self, index: np.ndarray) -> Tensor:
        """Model outputs for one batch. The batch tensor is built here,
        inside the caller's ``device.step()``, so its rows are metered."""
        return self.model(Tensor(self.channels[index]))

    def epoch_index(self) -> np.ndarray:
        """This epoch's training order (each epoch reshuffles the last)."""
        self.rng.shuffle(self.train_index)
        return self.train_index

    def loss(self, batch: np.ndarray) -> Tensor:
        return F.cross_entropy(self.forward(batch), self.labels[batch])

    def steps(self, epoch: int):
        for batch in batches(self.epoch_index(), self.config.batch_size):
            yield nullcontext(), partial(self.loss, batch)

    def predict(self, index: np.ndarray) -> np.ndarray:
        outputs = []
        with no_grad():
            for batch in batches(index, self.config.batch_size):
                with self.device.step():
                    outputs.append(self.forward(batch).data)
        return np.concatenate(outputs, axis=0)


class GraphPartitionTrainer(Placement):
    """Model-agnostic graph-partition training (the GP scheme of Table 2).

    Clusters are induced subgraphs; cross-cluster edges are severed, which
    is the expressiveness cost the paper attributes to this scheme. The
    severed count and its fraction of m are reported on the
    :class:`RunResult` (``cut_edges`` / ``cut_edge_fraction``) so accuracy
    deltas can be attributed to lost edges rather than optimization noise.

    Memory semantics match the paper's tables: exactly one cluster —
    its propagation operator plus its feature rows — is resident on the
    device per step (:meth:`DeviceModel.resident`), so GP OOMs iff the
    *largest* cluster exceeds capacity, never the whole graph. Cluster
    propagation flows through the autodiff spmm hooks, so under a blocked
    tier (:mod:`repro.runtime.blocked`, ``--blocked``) each per-cluster
    spmm is tiled against the tier's RAM budget.
    """

    device_name = "gp-device"

    def __init__(self, num_parts: int = 4, device: Optional[DeviceModel] = None):
        if num_parts < 1:
            raise TrainingError(f"num_parts must be >= 1, got {num_parts}")
        super().__init__(device)
        self.num_parts = int(num_parts)

    def setup(self, run: RunResult) -> Module:
        config, graph = self.config, self.graph
        rng = config.rng()
        train_mask = np.zeros(graph.num_nodes, dtype=bool)
        train_mask[self.split.train] = True
        #: (nodes, subgraph, operator, local train rows) per cluster.
        self.clusters = []
        with run.profiler.stage("precompute", op_class="propagation"):
            parts = bfs_partition(graph, self.num_parts, rng=rng)
            for part in parts:
                # Build each cluster operator up front: warms the subgraph
                # caches (train stage isn't charged for normalization) and
                # gives the residency accounting real operator sizes.
                sub = graph.subgraph(part)
                self.clusters.append((part, sub, sub.normalized_adjacency(
                    config.rho), np.flatnonzero(train_mask[part])))
        severed = cut_edges(graph, parts)
        run.cut_edges = int(severed)
        run.cut_edge_fraction = severed / max(graph.num_edges, 1)
        run.num_parts = len(parts)
        self.model = _decoupled_model(self.filter, graph, config, rng)
        self.device.to_device(parameters_bytes(self.model))
        run.profiler.record_ram("train", max(
            nbytes_of(op) + sub.features.nbytes
            for _, sub, op, _ in self.clusters))
        return self.model

    def loss(self, part, subgraph: Graph, rows) -> Tensor:
        return F.cross_entropy(self.model(subgraph)[rows],
                               self.labels[part][rows])

    def steps(self, epoch: int):
        for part, subgraph, operator, rows in self.clusters:
            if rows.size:
                yield (self.device.resident(operator, subgraph.features),
                       partial(self.loss, part, subgraph, rows))

    def predict(self, index: np.ndarray) -> np.ndarray:
        full_logits = np.zeros((len(self.labels), int(self.labels.max()) + 1),
                               dtype=np.float32)
        with no_grad():
            for part, subgraph, operator, _ in self.clusters:
                with self.device.resident(operator, subgraph.features), \
                        self.device.step():
                    full_logits[part] = self.model(subgraph).data
        return full_logits[index]


SCHEMES = {
    "full_batch": FullBatchTrainer,
    "mini_batch": MiniBatchTrainer,
    "graph_partition": GraphPartitionTrainer,
}
