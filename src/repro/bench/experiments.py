"""Experiment runners: one per table and figure of the paper.

Each function regenerates the rows/series of one published artifact —
same axes, same cell formats — on synthetic stand-ins of the datasets
(see DESIGN.md §2 for the substitution rationale). The companion
``benchmarks/`` directory wraps each runner in a pytest-benchmark target.

Scaling: ``DEFAULT_SCALES`` maps each dataset's scale class to a fraction
keeping the S < M < L ordering while staying CPU-feasible; pass
``scale_override`` (or per-call scales) to run closer to paper size.

Parallelism: the grid experiments (``efficiency_experiment``,
``effectiveness_experiment``, ``hop_sweep_experiment``,
``scale_shift_experiment``) decompose their
dataset×filter loops into self-contained cells executed through
:func:`repro.runtime.pool.execute_cells`. With the default
``pool=None``/``workers=1`` the cells run inline in grid order — the
serial path — while ``PoolConfig(workers=N)`` fans them out to worker
processes with bit-identical results (cells carry explicit seeds and are
reassembled in grid order). A failed cell (worker crash or timeout, pool
mode only) contributes a row with ``status="failed:<reason>"`` instead of
aborting the sweep.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..datasets.registry import DatasetSpec, get_spec
from ..datasets.signals import SIGNAL_NAMES
from ..datasets.splits import random_split, stratified_split
from ..datasets.synthesis import synthesize
from ..filters.base import PropagationContext
from ..filters.registry import FILTER_NAMES, REGISTRY, make_filter
from ..graph.graph import Graph
from ..graph.metrics import degree_groups
from ..runtime import cache as runtime_cache
from ..runtime import plan
from ..runtime.hardware import PROFILES
from ..runtime.pool import (
    Cell,
    CellResult,
    PoolConfig,
    derive_cell_seed,
    execute_cells,
)
from ..spectral.tsne import cluster_separation, tsne
from ..tasks.link_prediction import run_link_prediction
from ..tasks.node_classification import run_node_classification, run_seeds
from ..tasks.signal_regression import run_signal_regression
from ..training.loop import TrainConfig
from ..training.metrics import accuracy

#: CPU-feasible dataset scales preserving the S < M < L ordering.
DEFAULT_SCALES: Dict[str, float] = {"S": 0.25, "M": 0.02, "L": 0.004}

#: A category-balanced filter subset for the quicker benches (full sweeps
#: accept ``filters=FILTER_NAMES``).
REPRESENTATIVE_FILTERS: List[str] = [
    "identity", "linear", "impulse", "monomial", "ppr", "hk", "gaussian",
    "monomial_var", "horner", "chebyshev", "chebinterp", "bernstein",
    "favard", "optbasis",
    "adagnn", "fbgnn2", "acmgnn2", "fagnn", "g2cn", "gnnlfhf", "figure",
]

#: The OGB-PPA stand-in for the link-prediction study (Figure 6); PPA is
#: not a Table 3 dataset, so its spec lives here.
PPA_SPEC = DatasetSpec(
    name="ppa", scale_class="L", homophily_class="homo", nodes=576289,
    edges=60652546, homophily=0.5, num_features=58, num_classes=2,
    metric="roc_auc",
)


def dataset_scale(spec: DatasetSpec, override: Optional[float] = None) -> float:
    """Resolve the generation scale for a spec."""
    return override if override is not None else DEFAULT_SCALES[spec.scale_class]


def load_dataset(name: str, scale: Optional[float] = None, seed: int = 0) -> Graph:
    """Synthesize a benchmark dataset at its default (or given) scale."""
    spec = get_spec(name) if isinstance(name, str) else name
    return synthesize(spec, scale=dataset_scale(spec, scale), seed=seed)


def _config_for(spec: DatasetSpec, base: Optional[TrainConfig],
                seed: int = 0) -> TrainConfig:
    config = base or TrainConfig()
    return replace(config, metric=spec.metric, seed=seed)


# ======================================================================
# sweep cells (process-pool units; see repro.runtime.pool)
# ======================================================================
#: Per-process LRU memo of up to four synthesized graphs (uncounted),
#: keyed on (dataset, resolved scale, seed), so consecutive cells of one
#: dataset share a single synthesis in serial mode (matching the historic
#: one-load-per-dataset loops). A pool runs each cell in a fresh process,
#: so there a miss first looks in the sweep's shared term store: the first
#: cell to synthesize a graph publishes it as a ``b-<fp>`` blob and later
#: cells map it, so a store-backed sweep pays at most ``workers``
#: syntheses per dataset (the first cells race; the first publisher
#: wins). Synthesis is deterministic in (spec, scale, seed), so memo and
#: store hits are bit-identical to fresh loads.
_GRAPH_MEMO = runtime_cache.LRUCache(4)


def _graph_blob(graph: Graph) -> runtime_cache.Blob:
    arrays, meta = runtime_cache.csr_blob(graph.adjacency)
    arrays.update(features=graph.features, labels=graph.labels)
    meta["name"] = graph.name
    return arrays, meta


def _blob_graph(arrays: Dict[str, np.ndarray], meta: dict) -> Graph:
    """Features and labels stay read-only maps of the blob's files; the
    constructor copies the adjacency."""
    return Graph(runtime_cache.csr_from_blob(arrays, meta),
                 arrays["features"], arrays["labels"],
                 assume_symmetric=True, name=meta["name"])


def _memo_load(name: str, scale: Optional[float], seed: int) -> Graph:
    spec = get_spec(name)
    resolved = dataset_scale(spec, scale)
    key = (spec.name, resolved, seed)
    return _GRAPH_MEMO.get_or_compute(key, lambda: runtime_cache.shared_blob(
        "graph", key, lambda: load_dataset(spec, resolved, seed=seed),
        _graph_blob, _blob_graph))


def _failure_row(result: CellResult, **coordinates) -> Dict:
    """Placeholder row for a cell that exhausted its retries (pool mode)."""
    row = dict(coordinates)
    row["status"] = f"failed:{result.status}"
    row["error"] = result.error
    return row


def _chain_reads(cell: Cell) -> Tuple[str, FrozenSet[Tuple[str, Tuple]]]:
    """A sweep cell's dataset and the basis chains its filter's
    precompute reads at the cell's K
    (:func:`repro.runtime.plan.chain_demand`). A full-batch cell streams
    and reads none of them, so for it this over-states, which only keeps
    a chain longer."""
    kwargs = cell.kwargs
    hops = {"num_hops": kwargs["num_hops"]} if "num_hops" in kwargs else {}
    filter_ = make_filter(kwargs["filter_name"], num_features=1, **hops)
    return kwargs["dataset_name"], plan.chain_demand(filter_)


def _pooled_rows(cells: Sequence[Cell], pool: Optional[PoolConfig],
                 failure_keys: Sequence[str]) -> List[Dict]:
    """Execute cells and reassemble rows in grid order.

    Successful cells contribute their row lists; failed ones (pool mode
    only — inline cells propagate) contribute one failure row built from
    the cell key zipped with ``failure_keys``. Inline, the sweep's
    planner frees each basis chain after the last cell that reads it
    (:func:`_chain_reads`).
    """
    rows: List[Dict] = []
    for result in execute_cells(cells, pool, reads=_chain_reads):
        if result.ok:
            rows.extend(result.value)
        else:
            rows.append(_failure_row(
                result, **dict(zip(failure_keys, result.key))))
    return rows


def _efficiency_cell(dataset_name: str, filter_name: str, scheme: str,
                     config: TrainConfig, scale_override: Optional[float],
                     device_capacity_gib: Optional[float],
                     seed: int) -> List[Dict]:
    """One (dataset, scheme, filter) cell of the Figure 2 efficiency grid."""
    spec = get_spec(dataset_name)
    graph = _memo_load(dataset_name, scale_override, seed)
    run_config = _config_for(spec, config, seed)
    result = run_node_classification(
        graph, filter_name, scheme=scheme, config=run_config,
        device_capacity_gib=device_capacity_gib)
    row = {
        "dataset": dataset_name,
        "n": graph.num_nodes,
        "m": graph.num_edges,
        "filter": REGISTRY[filter_name].display,
        "type": REGISTRY[filter_name].category,
        "scheme": scheme,
        **result.columns(),
    }
    if result.cut_edges is not None:
        # GP expressiveness accounting: edges the clustering severed.
        row["cut_edges"] = result.cut_edges
        row["cut_edge_fraction"] = round(result.cut_edge_fraction, 6)
        row["num_parts"] = result.num_parts
    return [row]


def _effectiveness_cell(dataset_name: str, filter_name: str, scheme: str,
                        seeds: Sequence[int], config: TrainConfig,
                        scale_override: Optional[float]) -> List[Dict]:
    """One (dataset, filter) cell of the Table 5/10 effectiveness grid."""
    spec = get_spec(dataset_name)
    graph = _memo_load(dataset_name, scale_override, 0)
    run_config = _config_for(spec, config)
    summary = run_seeds(graph, filter_name, scheme=scheme,
                        config=run_config, seeds=tuple(seeds))
    return [
        {
            "dataset": dataset_name,
            "homophily_class": spec.homophily_class,
            "filter": REGISTRY[filter_name].display,
            "type": REGISTRY[filter_name].category,
            "scheme": scheme,
            "status": summary.status,
            "mean": summary.mean,
            "std": summary.std,
            "cell": summary.cell(),
        }
    ]


def _scale_shift_cell(dataset_name: str, filter_name: str,
                      seeds: Sequence[int], config: TrainConfig) -> List[Dict]:
    """One (dataset, filter) cell of the Figure 3 scale-shift sweep.

    ``relative_accuracy`` needs the per-dataset best across *all* filters,
    so the parent computes it after reassembly — cells only report the
    absolute score.
    """
    spec = get_spec(dataset_name)
    graph = _memo_load(dataset_name, None, 0)
    run_config = _config_for(spec, config)
    summary = run_seeds(graph, filter_name, scheme="mini_batch",
                        config=run_config, seeds=tuple(seeds))
    return [
        {
            "dataset": dataset_name,
            "scale_class": spec.scale_class,
            "n": graph.num_nodes,
            "filter": REGISTRY[filter_name].display,
            "accuracy": summary.mean,
        }
    ]


def _hop_cell(dataset_name: str, filter_name: str, num_hops: int,
              seeds: Sequence[int], config: TrainConfig) -> List[Dict]:
    """One (dataset, filter, K) cell of the Figure 7 hop sweep."""
    spec = get_spec(dataset_name)
    graph = _memo_load(dataset_name, None, 0)
    run_config = _config_for(spec, config)
    summary = run_seeds(graph, filter_name, scheme="full_batch",
                        config=run_config, seeds=tuple(seeds),
                        num_hops=num_hops)
    return [
        {
            "dataset": dataset_name,
            "homophily_class": spec.homophily_class,
            "filter": REGISTRY[filter_name].display,
            "K": num_hops,
            "accuracy": summary.mean,
        }
    ]


# ======================================================================
# Table 1 — taxonomy verification
# ======================================================================
def taxonomy_experiment(num_hops: int = 10, num_features: int = 16,
                        seed: int = 0) -> List[Dict]:
    """Verify Table 1's complexity columns against metered execution.

    Runs every filter on a small graph while counting propagation hops and
    precomputed channels, confirming the O(KmF) vs O(K²mF) time classes
    and the O(nF) vs O(KnF) channel-memory classes.
    """
    rng = np.random.default_rng(seed)
    graph = synthesize("cora", scale=0.1, seed=seed)
    signal = rng.normal(size=(graph.num_nodes, num_features)).astype(np.float32)
    rows = []
    for name in FILTER_NAMES:
        entry = REGISTRY[name]
        filter_ = make_filter(name, num_hops=num_hops, num_features=num_features)
        ctx = PropagationContext.for_graph(graph)
        params = {p: s.init for p, s in filter_.parameter_spec().items()}
        filter_.forward(ctx, signal, params or None)
        channels = filter_.precompute(graph, signal)
        rows.append(
            {
                "filter": entry.display,
                "type": entry.category,
                "declared_time": entry.time_complexity,
                "declared_memory": entry.memory_complexity,
                "measured_hops": ctx.hops,
                "mb_channels": channels.shape[1],
                "quadratic_hops": ctx.hops > 3 * num_hops,
            }
        )
    return rows


# ======================================================================
# Figure 2 / Tables 9 & 11 — time and memory efficiency per scheme
# ======================================================================
def efficiency_experiment(
    dataset_names: Sequence[str] = ("penn94", "arxiv", "pokec", "snap-patents"),
    filters: Sequence[str] = REPRESENTATIVE_FILTERS,
    schemes: Sequence[str] = ("full_batch", "mini_batch"),
    config: Optional[TrainConfig] = None,
    scale_override: Optional[float] = None,
    device_capacity_gib: Optional[float] = None,
    seed: int = 0,
    pool: Optional[PoolConfig] = None,
) -> List[Dict]:
    """Per-(dataset, filter, scheme) stage timings and memory peaks.

    With a finite ``device_capacity_gib``, memory-hungry full-batch runs
    report ``status="oom"`` — the empty bars of Figure 2. ``pool`` fans
    the (dataset, scheme, filter) cells out to worker processes
    (:mod:`repro.runtime.pool`); the default runs them inline, serially.
    """
    base = config or TrainConfig(epochs=5, patience=0, eval_every=10)
    cells = [
        Cell(key=(dataset_name, scheme, filter_name),
             fn=_efficiency_cell,
             kwargs=dict(dataset_name=dataset_name, filter_name=filter_name,
                         scheme=scheme, config=base,
                         scale_override=scale_override,
                         device_capacity_gib=device_capacity_gib, seed=seed))
        for dataset_name in dataset_names
        for scheme in schemes
        for filter_name in filters
    ]
    with plan.plan_scope():
        return _pooled_rows(cells, pool, ("dataset", "scheme", "filter"))


# ======================================================================
# Tables 5 & 10 — effectiveness under FB / MB
# ======================================================================
def effectiveness_experiment(
    dataset_names: Sequence[str] = ("cora", "chameleon", "roman"),
    filters: Sequence[str] = REPRESENTATIVE_FILTERS,
    scheme: str = "full_batch",
    seeds: Sequence[int] = (0, 1, 2),
    config: Optional[TrainConfig] = None,
    scale_override: Optional[float] = None,
    pool: Optional[PoolConfig] = None,
    root_seed: Optional[int] = None,
) -> List[Dict]:
    """Mean±std efficacy cells for filters × datasets under one scheme.

    ``pool`` distributes the (dataset, filter) cells across worker
    processes; each cell's repeats keep their explicit ``seeds``, so the
    mean±std cells are bit-identical across worker counts. With
    ``root_seed`` set, the repeat seeds are instead *derived* per cell as
    ``derive_cell_seed(root_seed, dataset, filter, repeat)`` — decorrelating
    repeats across cells while staying independent of worker scheduling
    (``len(seeds)`` then only fixes the repeat count).
    """
    base = config or TrainConfig(epochs=60, patience=30)

    def cell_seeds(dataset_name: str, filter_name: str) -> Tuple[int, ...]:
        if root_seed is None:
            return tuple(seeds)
        return tuple(derive_cell_seed(root_seed, dataset_name, filter_name,
                                      repeat) for repeat in range(len(seeds)))

    cells = [
        Cell(key=(dataset_name, scheme, filter_name),
             fn=_effectiveness_cell,
             kwargs=dict(dataset_name=dataset_name, filter_name=filter_name,
                         scheme=scheme,
                         seeds=cell_seeds(dataset_name, filter_name),
                         config=base, scale_override=scale_override))
        for dataset_name in dataset_names
        for filter_name in filters
    ]
    with plan.plan_scope():
        return _pooled_rows(cells, pool, ("dataset", "scheme", "filter"))


# ======================================================================
# Figure 3 — effectiveness shift across graph scales
# ======================================================================
def scale_shift_experiment(
    filters: Sequence[str] = ("linear", "impulse", "monomial", "ppr",
                              "monomial_var", "chebyshev"),
    dataset_names: Sequence[str] = ("cora", "arxiv", "products"),
    seeds: Sequence[int] = (0, 1),
    config: Optional[TrainConfig] = None,
    pool: Optional[PoolConfig] = None,
) -> List[Dict]:
    """Relative accuracy (to the per-dataset best) vs node count.

    One homophilous dataset per scale class; the paper's observation is
    that the spread between suitable and unsuitable filters widens as n
    grows. ``pool`` distributes the (dataset, filter) cells across worker
    processes; each cell reports its absolute accuracy and the parent
    derives ``relative_accuracy`` from the reassembled grid, so results
    are bit-identical across worker counts.
    """
    base = config or TrainConfig(epochs=60, patience=30)
    cells = [
        Cell(key=(dataset_name, filter_name),
             fn=_scale_shift_cell,
             kwargs=dict(dataset_name=dataset_name, filter_name=filter_name,
                         seeds=tuple(seeds), config=base))
        for dataset_name in dataset_names
        for filter_name in filters
    ]
    with plan.plan_scope():
        rows = _pooled_rows(cells, pool, ("dataset", "filter"))
    best: Dict[str, float] = {}
    for row in rows:
        if "accuracy" in row:
            best[row["dataset"]] = max(best.get(row["dataset"], float("-inf")),
                                       row["accuracy"])
    for row in rows:
        if "accuracy" in row:
            top = best[row["dataset"]]
            row["relative_accuracy"] = \
                row["accuracy"] / top if top > 0 else float("nan")
    return rows


# ======================================================================
# Figure 4 — result stability across seeds and splits
# ======================================================================
def stability_experiment(
    filters: Sequence[str] = ("monomial", "ppr", "chebyshev", "bernstein"),
    dataset_names: Sequence[str] = ("cora", "arxiv"),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    config: Optional[TrainConfig] = None,
) -> List[Dict]:
    """Per-seed scores under random vs stratified (stable) splits.

    cora-style random splits drive most of the seed variance; arxiv-style
    stratified splits concentrate it — the paper's Figure 4 contrast.
    """
    base = config or TrainConfig(epochs=60, patience=30)
    rows = []
    for dataset_name in dataset_names:
        spec = get_spec(dataset_name)
        graph = load_dataset(dataset_name, seed=0)
        run_config = _config_for(spec, base)
        split_kind = "random" if dataset_name == "cora" else "stratified"
        for seed in seeds:
            if split_kind == "random":
                split = random_split(graph.num_nodes, seed=seed)
            else:
                split = stratified_split(graph.labels, seed=seed)
            for filter_name in filters:
                result = run_node_classification(
                    graph, filter_name, scheme="full_batch",
                    config=replace(run_config, seed=seed), split=split)
                rows.append(
                    {
                        "dataset": dataset_name,
                        "split": split_kind,
                        "seed": seed,
                        "filter": REGISTRY[filter_name].display,
                        "score": result.test_score,
                    }
                )
    return rows


# ======================================================================
# Figure 5 — efficiency across hardware platforms
# ======================================================================
def hardware_experiment(
    filters: Sequence[str] = ("monomial", "ppr", "chebyshev", "favard"),
    dataset_name: str = "penn94",
    config: Optional[TrainConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """Project measured stage timings onto the S1 / S2 hardware profiles.

    MB fixed filters (transform-bound) speed up on the faster-GPU S2;
    propagation-bound FB runs slow down with its slower CPUs — Figure 5's
    crossover.
    """
    base = config or TrainConfig(epochs=5, patience=0, eval_every=10)
    spec = get_spec(dataset_name)
    graph = load_dataset(dataset_name, seed=seed)
    run_config = _config_for(spec, base, seed)
    rows = []
    for scheme in ("full_batch", "mini_batch"):
        for filter_name in filters:
            result = run_node_classification(graph, filter_name, scheme=scheme,
                                             config=run_config)
            summary = result.profiler.summary()
            for platform_name, profile in PROFILES.items():
                scaled = profile.scale_stage_seconds(summary)
                rows.append(
                    {
                        "dataset": dataset_name,
                        "filter": REGISTRY[filter_name].display,
                        "type": REGISTRY[filter_name].category,
                        "scheme": scheme,
                        "platform": platform_name,
                        "precompute_s": scaled.get("precompute", 0.0),
                        "train_s": scaled.get("train", 0.0),
                        "inference_s": scaled.get("inference", 0.0),
                        "total_s": sum(scaled.values()),
                    }
                )
    return rows


# ======================================================================
# Figure 6 — link-prediction efficiency
# ======================================================================
def linkpred_experiment(
    filters: Sequence[str] = ("identity", "impulse", "ppr", "monomial_var",
                              "chebyshev", "fagnn"),
    scale: float = 0.004,
    kappa: int = 2,
    config: Optional[TrainConfig] = None,
    seed: int = 0,
) -> List[Dict]:
    """MB link prediction on the PPA stand-in: AUC + stage efficiency."""
    base = config or TrainConfig(epochs=5, patience=0, metric="roc_auc")
    graph = synthesize(PPA_SPEC, scale=scale, seed=seed)
    rows = []
    for filter_name in filters:
        result = run_link_prediction(graph, filter_name, config=base, kappa=kappa)
        rows.append(
            {
                "dataset": "ppa",
                "filter": REGISTRY[filter_name].display,
                "type": REGISTRY[filter_name].category,
                "status": result.status,
                "auc": result.test_score,
                **result.columns("precompute_s", "train_s_per_epoch",
                                 "ram_bytes", "device_bytes"),
            }
        )
    return rows


# ======================================================================
# Table 7 — signal regression R²
# ======================================================================
def regression_experiment(
    filters: Sequence[str] = ("ppr", "linear", "impulse", "monomial", "hk",
                              "gaussian", "monomial_var", "horner",
                              "chebyshev", "clenshaw", "chebinterp",
                              "bernstein", "legendre", "jacobi", "favard",
                              "optbasis"),
    dataset_name: str = "cora",
    scale: float = 0.1,
    num_hops: int = 10,
    epochs: int = 150,
    seed: int = 0,
) -> List[Dict]:
    """R² of each filter on the five Table 7 transfer functions."""
    graph = load_dataset(dataset_name, scale, seed=seed)
    rows = []
    for filter_name in filters:
        row: Dict = {
            "filter": REGISTRY[filter_name].display,
            "type": REGISTRY[filter_name].category,
        }
        for signal_name in SIGNAL_NAMES:
            result = run_signal_regression(graph, filter_name, signal_name,
                                           num_hops=num_hops, epochs=epochs,
                                           seed=seed)
            row[signal_name] = round(100.0 * result.r2, 2)
        rows.append(row)
    return rows


# ======================================================================
# Figure 7 — effect of propagation hops K
# ======================================================================
def hop_sweep_experiment(
    filters: Sequence[str] = ("linear", "impulse", "ppr", "gaussian",
                              "monomial_var", "chebyshev"),
    dataset_names: Sequence[str] = ("cora", "chameleon"),
    hops: Sequence[int] = (2, 4, 6, 10, 14, 20),
    config: Optional[TrainConfig] = None,
    seeds: Sequence[int] = (0, 1),
    pool: Optional[PoolConfig] = None,
) -> List[Dict]:
    """Accuracy vs K: over-smoothing of low-pass filters at large K.

    ``pool`` distributes the (dataset, filter, K) cells across worker
    processes; the default runs them inline, serially.
    """
    base = config or TrainConfig(epochs=60, patience=30)
    cells = [
        Cell(key=(dataset_name, filter_name, num_hops),
             fn=_hop_cell,
             kwargs=dict(dataset_name=dataset_name, filter_name=filter_name,
                         num_hops=num_hops, seeds=tuple(seeds), config=base))
        for dataset_name in dataset_names
        for filter_name in filters
        for num_hops in hops
    ]
    with plan.plan_scope():
        return _pooled_rows(cells, pool, ("dataset", "filter", "K"))


# ======================================================================
# Figure 8 — t-SNE cluster visualization
# ======================================================================
def tsne_experiment(
    filters: Sequence[str] = ("impulse", "ppr", "monomial", "chebyshev",
                              "chebinterp", "jacobi"),
    dataset_names: Sequence[str] = ("cora", "chameleon"),
    config: Optional[TrainConfig] = None,
    tsne_iterations: int = 250,
    seed: int = 0,
) -> List[Dict]:
    """Embed learned logits with t-SNE; report cluster-separation scores.

    Sharp clusters (high separation) correspond to the filters that also
    classify well on that dataset — Figure 8's visual argument, made
    quantitative.
    """
    base = config or TrainConfig(epochs=60, patience=30)
    rows = []
    for dataset_name in dataset_names:
        spec = get_spec(dataset_name)
        graph = load_dataset(dataset_name, seed=seed)
        run_config = _config_for(spec, base, seed)
        for filter_name in filters:
            result = run_node_classification(graph, filter_name,
                                             scheme="full_batch",
                                             config=run_config)
            embedding = tsne(result.predictions, perplexity=20.0,
                             num_iterations=tsne_iterations, seed=seed)
            rows.append(
                {
                    "dataset": dataset_name,
                    "filter": REGISTRY[filter_name].display,
                    "accuracy": result.test_score,
                    "cluster_separation":
                        cluster_separation(embedding, graph.labels),
                    "embedding": embedding,
                }
            )
    return rows


# ======================================================================
# Figure 9 — degree-specific effectiveness
# ======================================================================
def degree_bias_experiment(
    filters: Sequence[str] = ("linear", "impulse", "monomial", "ppr",
                              "monomial_var", "chebyshev", "bernstein"),
    dataset_names: Sequence[str] = ("citeseer", "cora", "chameleon", "roman"),
    config: Optional[TrainConfig] = None,
    seeds: Sequence[int] = (0, 1),
    rho: Optional[float] = None,
) -> List[Dict]:
    """Accuracy gap between high- and low-degree test nodes.

    Positive gaps on homophilous graphs, negative under heterophily — the
    paper's amendment to the "high degree is always easier" assumption.
    """
    base = config or TrainConfig(epochs=60, patience=30)
    rows = []
    for dataset_name in dataset_names:
        spec = get_spec(dataset_name)
        graph = load_dataset(dataset_name, seed=0)
        high, low = degree_groups(graph)
        run_config = _config_for(spec, base)
        if rho is not None:
            run_config = replace(run_config, rho=rho)
        for filter_name in filters:
            gaps, overall = [], []
            for seed in seeds:
                split = random_split(graph.num_nodes, seed=seed)
                result = run_node_classification(
                    graph, filter_name, scheme="full_batch",
                    config=replace(run_config, seed=seed), split=split)
                high_test = np.intersect1d(split.test, high)
                low_test = np.intersect1d(split.test, low)
                if not len(high_test) or not len(low_test):
                    continue
                acc_high = accuracy(result.predictions[high_test],
                                    graph.labels[high_test])
                acc_low = accuracy(result.predictions[low_test],
                                   graph.labels[low_test])
                gaps.append(acc_high - acc_low)
                overall.append(result.test_score)
            rows.append(
                {
                    "dataset": dataset_name,
                    "homophily_class": spec.homophily_class,
                    "filter": REGISTRY[filter_name].display,
                    "rho": run_config.rho,
                    "degree_gap": float(np.mean(gaps)) if gaps else float("nan"),
                    "overall": float(np.mean(overall)) if overall else float("nan"),
                }
            )
    return rows


# ======================================================================
# Figure 10 — effect of graph normalization ρ
# ======================================================================
def normalization_experiment(
    filters: Sequence[str] = ("ppr", "monomial_var"),
    dataset_names: Sequence[str] = ("citeseer", "roman"),
    rhos: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    config: Optional[TrainConfig] = None,
    seeds: Sequence[int] = (0, 1),
) -> List[Dict]:
    """Degree-gap as a function of the normalization coefficient ρ.

    Larger ρ up-weights inbound information and lifts high-degree accuracy
    (Figure 10's rising trend on citeseer/roman).
    """
    rows = []
    for rho in rhos:
        rows.extend(
            degree_bias_experiment(filters=filters, dataset_names=dataset_names,
                                   config=config, seeds=seeds, rho=rho)
        )
    return rows


# ======================================================================
# Table 6 — out-of-framework baselines
# ======================================================================
def baseline_experiment(
    dataset_names: Sequence[str] = ("arxiv", "penn94"),
    backends: Sequence[str] = ("csr", "coo_gather"),
    config: Optional[TrainConfig] = None,
    device_capacity_gib: Optional[float] = None,
    seed: int = 0,
) -> List[Dict]:
    """GCN / GraphSAGE / ChebNet (SP vs EI backends) + graph transformers.

    Reproduces Table 6's contrasts: the gather-scatter (EI) backend's
    O(mF) intermediates inflate device memory and OOM first; transformers
    pay a long precompute and slow training for their accuracy.
    """
    from .baseline_runners import (
        train_ansgt,
        train_iterative_baseline,
        train_nagphormer,
    )

    base = config or TrainConfig(epochs=10, patience=0, eval_every=20)
    rows: List[Dict] = []
    for dataset_name in dataset_names:
        spec = get_spec(dataset_name)
        graph = load_dataset(dataset_name, seed=seed)
        run_config = _config_for(spec, base, seed)
        split = random_split(graph.num_nodes, seed=seed)
        for backend in backends:
            for model_name in ("GCN", "GraphSAGE", "ChebNet"):
                rows.append(
                    train_iterative_baseline(
                        model_name, graph, split, run_config, backend,
                        device_capacity_gib)
                    | {"dataset": dataset_name}
                )
        rows.append(train_nagphormer(graph, split, run_config,
                                     device_capacity_gib)
                    | {"dataset": dataset_name})
        rows.append(train_ansgt(graph, split, run_config, device_capacity_gib)
                    | {"dataset": dataset_name})
    return rows
