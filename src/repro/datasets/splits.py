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


def _validate_fractions(fractions) -> None:
    if any(f < 0.0 or f > 1.0 for f in fractions):
        raise DatasetError(f"split fractions must be in [0, 1], got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DatasetError(f"split fractions must sum to 1, got {fractions}")


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


def random_split(
    num_nodes: int,
    seed: int = 0,
    fractions: Tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> Split:
    """Random node split; the default fractions are the paper's 60/20/20."""
    _validate_fractions(fractions)
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    train_end = int(round(fractions[0] * num_nodes))
    valid_end = train_end + int(round(fractions[1] * num_nodes))
    return Split(
        train=np.sort(order[:train_end]),
        valid=np.sort(order[train_end:valid_end]),
        test=np.sort(order[valid_end:]),
    )


def stratified_split(
    labels: np.ndarray,
    seed: int = 0,
    fractions: Tuple[float, float, float] = (0.6, 0.2, 0.2),
) -> Split:
    """Per-class random split; the analogue of attribute-based stable splits.

    The paper notes (Figure 4) that attribute-based splits such as arxiv's
    produce far lower seed variance than uniform random splits; stratifying
    reproduces that stability property.
    """
    _validate_fractions(fractions)
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
