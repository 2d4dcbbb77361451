"""Synthetic graph generation: degree-corrected contextual SBMs.

The paper evaluates on 22 public datasets that cannot be downloaded in an
offline environment. This module is the documented substitution (DESIGN.md
§2): for any :class:`~repro.datasets.registry.DatasetSpec` it generates a
graph that matches the statistics *the paper's findings actually depend
on* —

- node/edge counts (scaled by a ``scale`` factor so CPU-only runs finish),
- the node-homophily score H, which drives every effectiveness finding,
- a heavy-tailed degree distribution (degree-corrected SBM), which drives
  the degree-bias findings of Section 6.3,
- attribute dimension F_i and class count F_o with class-conditional
  Gaussian features (the contextual-SBM model), which drive the
  over-squashing observations for small-F_i datasets.

Edges are sampled endpoint-wise: a source drawn ∝ degree propensity, then
a same-class target with probability H (else a uniform-class target),
which concentrates node homophily around H for every class balance.
Self-loops are dropped and undirected duplicates removed on one sorted
int64 key ``min(u, v) * n + max(u, v)`` (the order of lexicographic
``(u, v)`` rows), then an oversampled draw is cut to the target count.

The same (spec, scale, seed) is bit-reproducible, and across
implementation changes too: ``tests/data/synthesis_golden.json`` pins a
sha256 of the CSR arrays, features and labels for every registry spec on
two seeds and for each point the performance benchmark synthesises.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetError
from ..graph.graph import Graph
from .registry import DatasetSpec, get_spec


# Generator constants (the benchmark protocol's values).
#: Signal-to-noise ratio of class-conditional features; higher makes the
#: Identity (MLP) baseline stronger.
FEATURE_SIGNAL = 0.5
#: Fraction of cross-class edges that follow the structured partner cycle
#: (class c → class c+1 mod C) instead of a uniform other class.
#: Structured heterophily is what makes high-frequency filters useful —
#: real heterophilous graphs (roman-empire's syntax chains, squirrel's
#: traffic patterns) are disassortative but far from label-random.
HETERO_STRUCTURE = 0.7
#: Lognormal σ of degree propensities (0 = near-regular graph).
DEGREE_TAIL = 1.0
#: Hard floors on the generated node and undirected edge counts.
MIN_NODES = 60
MIN_EDGES = 120
#: Latent dimensionality of the class-mean structure.
LATENT_DIM = 16


#: Supported range of the linear ``scale`` factor. Below the floor the
#: generator degenerates (every spec collapses onto the ``min_nodes`` /
#: ``min_edges`` floors, so "different scales" silently produce the same
#: graph); above 1.0 would extrapolate past the paper-sized statistics.
MIN_SCALE = 1e-4
MAX_SCALE = 1.0


def validate_scale(scale: float) -> float:
    """Check ``scale`` against the generator's supported range.

    Returns the value as a float, or raises :class:`DatasetError` with an
    actionable message. The bench CLI calls this at argument-parse time so
    an unsupported scale fails immediately instead of deep inside dataset
    generation.
    """
    try:
        scale = float(scale)
    except (TypeError, ValueError):
        raise DatasetError(f"scale must be a number, got {scale!r}") from None
    if not np.isfinite(scale) or not (MIN_SCALE <= scale <= MAX_SCALE):
        raise DatasetError(
            f"scale {scale!r} is outside the synthesizer's supported range "
            f"[{MIN_SCALE}, {MAX_SCALE}] (1.0 = paper-sized graph)"
        )
    return scale


def synthesize(
    spec_or_name: DatasetSpec | str,
    scale: float = 1.0,
    seed: int = 0,
) -> Graph:
    """Generate a graph matching a dataset spec at the given scale.

    Parameters
    ----------
    spec_or_name:
        A :class:`DatasetSpec` or registry name (e.g. ``"cora"``).
    scale:
        Node/edge linear scale factor; 1.0 = paper-sized graph.
    seed:
        Generator seed; the same (spec, scale, seed) is bit-reproducible.
    """
    spec = get_spec(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
    scale = validate_scale(scale)
    rng = np.random.default_rng(seed)

    n = max(MIN_NODES, int(round(spec.nodes * scale)))
    # Table 3 counts directed edges incl. self-loops; undirected unique ≈ (m−n)/2.
    target_undirected = int(round(max(spec.edges - spec.nodes, spec.nodes) * scale / 2))
    num_edges = max(MIN_EDGES, target_undirected)
    num_classes = min(spec.num_classes, n // 4) or 1

    labels = _sample_labels(rng, n, num_classes)
    edges = _sample_edges(rng, labels, num_edges, spec.homophily,
                          DEGREE_TAIL, HETERO_STRUCTURE)
    features = _sample_features(rng, labels, spec.num_features,
                                LATENT_DIM, FEATURE_SIGNAL)
    graph = Graph.from_edges(n, edges, features=features, labels=labels,
                             name=f"{spec.name}@{scale:g}")
    return graph


def _sample_labels(rng: np.random.Generator, n: int, num_classes: int) -> np.ndarray:
    """Mildly imbalanced class assignment (Zipf-ish mass, min 2% a class)."""
    weights = 1.0 / np.arange(1, num_classes + 1) ** 0.5
    weights = np.maximum(weights / weights.sum(), 0.02)
    weights /= weights.sum()
    labels = rng.choice(num_classes, size=n, p=weights)
    # Guarantee every class appears so F_o stays faithful to the spec.
    for c in range(num_classes):
        if not np.any(labels == c):
            labels[rng.integers(n)] = c
    return labels


def _sample_edges(
    rng: np.random.Generator,
    labels: np.ndarray,
    num_edges: int,
    homophily: float,
    degree_tail: float,
    hetero_structure: float,
) -> np.ndarray:
    """Endpoint sampling with degree propensities and homophily mixing."""
    n = labels.shape[0]
    num_classes = int(labels.max()) + 1
    propensity = rng.lognormal(mean=0.0, sigma=degree_tail, size=n)
    propensity /= propensity.sum()

    class_members = [np.flatnonzero(labels == c) for c in range(num_classes)]
    class_probs = []
    for members in class_members:
        weights = propensity[members]
        class_probs.append(weights / weights.sum())

    # Oversample: self-loops and duplicates get dropped afterwards.
    oversample = int(num_edges * 1.35) + 16
    sources = rng.choice(n, size=oversample, p=propensity)
    same_class = rng.random(oversample) < homophily
    targets = np.empty(oversample, dtype=np.int64)
    source_labels = labels[sources]

    # Same-class targets: per-class vectorized draws.
    for c in range(num_classes):
        mask = same_class & (source_labels == c)
        count = int(mask.sum())
        if count:
            targets[mask] = rng.choice(class_members[c], size=count, p=class_probs[c])
    # Cross-class targets: with probability ``hetero_structure`` follow the
    # partner cycle c → c+1 (structured disassortativity, the pattern that
    # makes high-frequency filters informative), otherwise draw from the
    # propensity-weighted complement of the source class. Both branches
    # avoid the source class, so the homophily target is exact.
    cross = ~same_class
    if num_classes == 1:
        count = int(cross.sum())
        if count:
            targets[cross] = rng.choice(n, size=count, p=propensity)
    else:
        structured = cross & (rng.random(oversample) < hetero_structure)
        for c in range(num_classes):
            partner = (c + 1) % num_classes
            mask = structured & (source_labels == c)
            count = int(mask.sum())
            if count:
                targets[mask] = rng.choice(
                    class_members[partner], size=count, p=class_probs[partner]
                )
            mask = cross & ~structured & (source_labels == c)
            count = int(mask.sum())
            if count:
                complement = np.flatnonzero(labels != c)
                weights = propensity[complement]
                targets[mask] = rng.choice(
                    complement, size=count, p=weights / weights.sum()
                )

    # Drop self-loops, then dedup undirected pairs on one int64 key: sorted
    # ``low * n + high`` orders pairs exactly like lexicographic (low, high)
    # rows, which the seeded subsample below indexes into. Exact while
    # n * n fits int64, i.e. n < 3.03e9. 1-D ``np.unique`` is no
    # substitute: on numpy 2.4 it takes a hashing path over ten times
    # slower than this sort and mask.
    key = np.minimum(sources, targets) * n + np.maximum(sources, targets)
    key = np.sort(key[sources != targets])
    first = np.empty(key.shape, dtype=bool)
    first[:1] = True  # a slice, so an all-self-loop draw stays empty
    np.not_equal(key[1:], key[:-1], out=first[1:])
    edges = np.stack(np.divmod(key[first], n), axis=1)
    if edges.shape[0] > num_edges:
        keep = rng.choice(edges.shape[0], size=num_edges, replace=False)
        edges = edges[keep]
    if edges.shape[0] == 0:
        raise DatasetError("edge sampling produced an empty graph")
    return edges


def _sample_features(
    rng: np.random.Generator,
    labels: np.ndarray,
    num_features: int,
    latent_dim: int,
    signal: float,
) -> np.ndarray:
    """Contextual-SBM features: class mean + isotropic noise, projected."""
    n = labels.shape[0]
    num_classes = int(labels.max()) + 1
    latent = min(latent_dim, num_features)
    means = rng.normal(size=(num_classes, latent)) * signal
    latent_features = means[labels] + rng.normal(size=(n, latent))
    projection = rng.normal(size=(latent, num_features)) / np.sqrt(latent)
    features = latent_features @ projection
    features += 0.1 * rng.normal(size=(n, num_features))
    return features.astype(np.float32)
