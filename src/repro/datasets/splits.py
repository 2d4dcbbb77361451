"""Train/validation/test splits under the paper's protocol.

Datasets without predefined splits use random 60%/20%/20% node splits
(Section 4); all filters learning under the same seed share the same split,
which is the basis of the stability study in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import DatasetError


#: Train/validation/test fractions of a node split: the paper's 60/20/20.
SPLIT_FRACTIONS = (0.6, 0.2, 0.2)


@dataclass(frozen=True)
class Split:
    """Index arrays of one train/validation/test split."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        total = len(self.train) + len(self.valid) + len(self.test)
        combined = np.concatenate([self.train, self.valid, self.test])
        if len(np.unique(combined)) != total:
            raise DatasetError("split index arrays overlap")


def random_split(num_nodes: int, seed: int = 0) -> Split:
    """Random node split at :data:`SPLIT_FRACTIONS`."""
    fractions = SPLIT_FRACTIONS
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    train_end = int(round(fractions[0] * num_nodes))
    valid_end = train_end + int(round(fractions[1] * num_nodes))
    return Split(
        train=np.sort(order[:train_end]),
        valid=np.sort(order[train_end:valid_end]),
        test=np.sort(order[valid_end:]),
    )


def stratified_split(labels: np.ndarray, seed: int = 0) -> Split:
    """Per-class random split; the analogue of attribute-based stable splits.

    The paper notes (Figure 4) that attribute-based splits such as arxiv's
    produce far lower seed variance than uniform random splits; stratifying
    reproduces that stability property.
    """
    fractions = SPLIT_FRACTIONS
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    train_parts, valid_parts, test_parts = [], [], []
    for cls in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == cls))
        train_end = int(round(fractions[0] * len(members)))
        valid_end = train_end + int(round(fractions[1] * len(members)))
        train_parts.append(members[:train_end])
        valid_parts.append(members[train_end:valid_end])
        test_parts.append(members[valid_end:])
    return Split(
        train=np.sort(np.concatenate(train_parts)),
        valid=np.sort(np.concatenate(valid_parts)),
        test=np.sort(np.concatenate(test_parts)),
    )


def edge_split(edges: np.ndarray, seed: int = 0
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split undirected edges 80/10/10 for link prediction
    (train/valid/test)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(edges.shape[0])
    train_end = int(round(0.8 * len(order)))
    valid_end = train_end + int(round(0.1 * len(order)))
    return (
        edges[order[:train_end]],
        edges[order[train_end:valid_end]],
        edges[order[valid_end:]],
    )
