"""Dataset registry: the paper's Table 3, machine-readable.

Each :class:`DatasetSpec` carries the published statistics — node count,
directed-edge count, node homophily score H, attribute width F_i, class
count F_o, and the efficacy metric — for all 22 benchmark datasets, grouped
by scale (S/M/L) and homophily class.

The public graphs themselves are not downloadable offline; the companion
:mod:`repro.datasets.synthesis` module generates a degree-corrected
contextual SBM graph matching any spec at a configurable ``scale``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of one benchmark dataset (one Table 3 row)."""

    name: str
    scale_class: str      # "S" | "M" | "L"
    homophily_class: str  # "homo" | "hetero"
    nodes: int
    edges: int            # directed count (undirected counted twice + loops)
    homophily: float      # node homophily score H
    num_features: int     # F_i
    num_classes: int      # F_o
    metric: str           # "accuracy" | "roc_auc"

    @property
    def average_degree(self) -> float:
        return self.edges / self.nodes

    @property
    def is_binary(self) -> bool:
        return self.num_classes == 2


def _spec(name, scale_class, homophily_class, nodes, edges, homophily,
          num_features, num_classes, metric="accuracy") -> DatasetSpec:
    return DatasetSpec(name, scale_class, homophily_class, nodes, edges,
                       homophily, num_features, num_classes, metric)


#: Table 3, in row order.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        # ----- small, homophilous -----
        _spec("cora", "S", "homo", 2708, 10556, 0.83, 1433, 7),
        _spec("citeseer", "S", "homo", 3327, 9104, 0.72, 3703, 6),
        _spec("pubmed", "S", "homo", 19717, 88648, 0.79, 500, 3),
        _spec("minesweeper", "S", "homo", 10000, 78804, 0.68, 7, 2, "roc_auc"),
        _spec("questions", "S", "homo", 48921, 307080, 0.90, 301, 2, "roc_auc"),
        _spec("tolokers", "S", "homo", 11758, 1038000, 0.63, 10, 2, "roc_auc"),
        # ----- small, heterophilous -----
        _spec("chameleon", "S", "hetero", 890, 17708, 0.24, 2325, 5),
        _spec("squirrel", "S", "hetero", 2223, 93996, 0.19, 2089, 5),
        _spec("actor", "S", "hetero", 7600, 30019, 0.22, 932, 5),
        _spec("roman", "S", "hetero", 22662, 65854, 0.05, 300, 18),
        _spec("ratings", "S", "hetero", 24492, 186100, 0.38, 300, 5),
        # ----- medium, homophilous -----
        _spec("flickr", "M", "homo", 89250, 899756, 0.32, 500, 7),
        _spec("arxiv", "M", "homo", 169343, 1166243, 0.63, 128, 40),
        # ----- medium, heterophilous -----
        _spec("arxiv-year", "M", "hetero", 169343, 1166243, 0.31, 128, 5),
        _spec("penn94", "M", "hetero", 41554, 2724458, 0.48, 4814, 2),
        _spec("genius", "M", "hetero", 421961, 984979, 0.08, 12, 2, "roc_auc"),
        _spec("twitch-gamer", "M", "hetero", 168114, 6797557, 0.10, 7, 2),
        # ----- large, homophilous -----
        _spec("mag", "L", "homo", 736389, 5416271, 0.31, 128, 349),
        _spec("products", "L", "homo", 2449029, 123718280, 0.83, 100, 47),
        # ----- large, heterophilous -----
        _spec("pokec", "L", "hetero", 1632803, 30622564, 0.43, 65, 2),
        _spec("snap-patents", "L", "hetero", 2923922, 13972555, 0.22, 269, 5),
        _spec("wiki", "L", "hetero", 1925342, 303434860, 0.28, 600, 5),
    ]
}

DATASET_NAMES: List[str] = list(DATASETS)


def get_spec(name: str) -> DatasetSpec:
    """Look up a dataset spec by name (case-insensitive)."""
    spec = DATASETS.get(name.lower())
    if spec is None:
        from ..errors import DatasetError

        raise DatasetError(
            f"unknown dataset {name!r}; known: {', '.join(DATASET_NAMES)}"
        )
    return spec

