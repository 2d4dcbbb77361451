"""Node classification: the benchmark's main task (Section 5).

:func:`run_node_classification` is the single entry point the harness and
examples call: it wires a dataset (or pre-built graph), a filter from the
registry, a learning scheme, and a simulated device into one seeded run,
and :func:`run_seeds` aggregates the multi-seed statistics the paper's
tables report (mean ± std over 10 seeds by default).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..datasets.splits import Split, random_split
from ..filters.registry import make_filter
from ..graph.graph import Graph
from ..training.loop import RunResult, TrainConfig, make_device
from ..training.schemes import SCHEMES


def build_task_filter(
    filter_name: str,
    graph: Graph,
    config: TrainConfig,
    scheme: str,
    num_hops: int = 10,
    filter_hp: Optional[Dict[str, float]] = None,
):
    """Instantiate a registry filter sized for the scheme's signal width.

    AdaGNN's per-feature γ bank must match the width of the signal the
    filter actually sees: φ0's output under full batch, the raw attributes
    under mini batch (which has no φ0).
    """
    filter_hp = dict(filter_hp or {})
    if scheme == "mini_batch" or config.phi0_layers == 0:
        width = graph.num_features
    else:
        width = config.hidden
    return make_filter(filter_name, num_hops=num_hops, num_features=width,
                       **filter_hp)


def run_node_classification(
    graph: Graph,
    filter_name: str,
    scheme: str = "full_batch",
    config: Optional[TrainConfig] = None,
    split: Optional[Split] = None,
    num_hops: int = 10,
    filter_hp: Optional[Dict[str, float]] = None,
    device_capacity_gib: Optional[float] = None,
    num_parts: int = 4,
) -> RunResult:
    """One seeded training run of one filter under one scheme.

    Parameters
    ----------
    graph:
        An attributed, labelled :class:`Graph` (e.g. from
        :func:`repro.datasets.synthesize`).
    filter_name:
        Registry name (one of :data:`repro.filters.FILTER_NAMES`).
    scheme:
        ``"full_batch"`` | ``"mini_batch"`` | ``"graph_partition"``.
    device_capacity_gib:
        Simulated accelerator capacity; runs exceeding it return
        ``status="oom"`` instead of raising.
    """
    config = config or TrainConfig()
    if split is None:
        split = random_split(graph.num_nodes, seed=config.seed)
    filter_ = build_task_filter(filter_name, graph, config, scheme,
                                num_hops=num_hops, filter_hp=filter_hp)
    device = make_device(device_capacity_gib, name=f"{scheme}-device")
    if scheme == "graph_partition":
        trainer = SCHEMES[scheme](num_parts=num_parts, device=device)
    else:
        trainer = SCHEMES[scheme](device=device)
    return trainer.fit(graph, split, filter_, config)


@dataclass
class SeedSummary:
    """Multi-seed aggregate of one configuration (a table cell)."""

    scores: List[float]
    results: List[RunResult]

    @property
    def status(self) -> str:
        return "oom" if any(r.is_oom for r in self.results) else "ok"

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores)) if self.scores else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.scores)) if self.scores else float("nan")

    def cell(self) -> str:
        """Render like the paper, in percent: ``86.58±1.96`` or ``(OOM)``."""
        if self.status == "oom":
            return "(OOM)"
        return f"{self.mean * 100.0:.2f}±{self.std * 100.0:.2f}"


def run_seeds(
    graph: Graph,
    filter_name: str,
    scheme: str = "full_batch",
    config: Optional[TrainConfig] = None,
    seeds: Sequence[int] = (0, 1, 2),
    shared_split_seed: Optional[int] = None,
    **kwargs,
) -> SeedSummary:
    """Repeat a run over seeds; each seed re-draws the random split unless
    ``shared_split_seed`` pins one split for all seeds (Figure 4 protocol).
    """
    config = config or TrainConfig()
    scores: List[float] = []
    results: List[RunResult] = []
    for seed in seeds:
        seeded = replace(config, seed=seed)
        split_seed = shared_split_seed if shared_split_seed is not None else seed
        split = random_split(graph.num_nodes, seed=split_seed)
        result = run_node_classification(
            graph, filter_name, scheme=scheme, config=seeded, split=split, **kwargs)
        results.append(result)
        if not result.is_oom:
            scores.append(result.test_score)
    return SeedSummary(scores=scores, results=results)
