"""t-SNE from scratch, for the cluster visualizations of Figure 8.

A compact implementation of Barnes-Hut-free t-SNE (van der Maaten &
Hinton): binary-search perplexity calibration, symmetrized affinities,
Student-t low-dimensional kernel, gradient descent with momentum and early
exaggeration. Quadratic in the number of points — intended for the
few-thousand-node visualization graphs the paper uses, not for training.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


def _pairwise_squared_distances(x: np.ndarray) -> np.ndarray:
    norms = (x ** 2).sum(axis=1)
    distances = norms[:, None] + norms[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(distances, 0.0)
    return np.maximum(distances, 0.0)


def _calibrate_affinities(distances: np.ndarray,
                          perplexity: float) -> np.ndarray:
    """Per-point binary search (≤ 50 steps, entropy within 1e-4) for the
    bandwidth hitting the perplexity."""
    n = distances.shape[0]
    target_entropy = np.log(perplexity)
    affinities = np.zeros((n, n))
    for i in range(n):
        beta, beta_low, beta_high = 1.0, 0.0, np.inf
        row = distances[i].copy()
        row[i] = np.inf
        for _ in range(50):
            p = np.exp(-row * beta)
            total = p.sum()
            if total <= 0:
                entropy = 0.0
                p = np.zeros_like(p)
            else:
                p /= total
                nonzero = p > 0
                entropy = -np.sum(p[nonzero] * np.log(p[nonzero]))
            error = entropy - target_entropy
            if abs(error) < 1e-4:
                break
            if error > 0:
                beta_low = beta
                beta = beta * 2.0 if beta_high == np.inf else (beta + beta_high) / 2.0
            else:
                beta_high = beta
                beta = beta / 2.0 if beta_low == 0.0 else (beta + beta_low) / 2.0
        affinities[i] = p
    return affinities


def tsne(
    x: np.ndarray,
    perplexity: float = 30.0,
    num_iterations: int = 400,
    seed: int = 0,
) -> np.ndarray:
    """Embed points into two dimensions with t-SNE.

    Parameters mirror the common reference implementation (learning rate
    200, a random start of scale 1e-4). Runtime and memory are O(n²);
    keep n in the low thousands.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ReproError(f"t-SNE input must be 2-D, got {x.shape}")
    n = x.shape[0]
    if perplexity >= n:
        raise ReproError(f"perplexity {perplexity} must be < number of points {n}")
    rng = np.random.default_rng(seed)

    distances = _pairwise_squared_distances(x)
    conditional = _calibrate_affinities(distances, perplexity)
    joint = (conditional + conditional.T) / (2.0 * n)
    joint = np.maximum(joint, 1e-12)

    embedding = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(embedding)
    gains = np.ones_like(embedding)

    exaggeration_until = min(100, num_iterations // 4)
    for iteration in range(num_iterations):
        p = joint * 4.0 if iteration < exaggeration_until else joint
        momentum = 0.5 if iteration < 250 else 0.8

        low_d = _pairwise_squared_distances(embedding)
        kernel = 1.0 / (1.0 + low_d)
        np.fill_diagonal(kernel, 0.0)
        q = np.maximum(kernel / kernel.sum(), 1e-12)

        coefficient = (p - q) * kernel
        grad = 4.0 * (
            np.diag(coefficient.sum(axis=1)) @ embedding - coefficient @ embedding
        )

        flips = np.sign(grad) != np.sign(velocity)
        gains = np.where(flips, gains + 0.2, gains * 0.8)
        gains = np.maximum(gains, 0.01)
        velocity = momentum * velocity - 200.0 * gains * grad
        embedding = embedding + velocity
        embedding -= embedding.mean(axis=0, keepdims=True)
    return embedding


def cluster_separation(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Silhouette-style separation score of an embedding's label clusters.

    Ratio of mean between-class centroid distance to mean within-class
    spread; higher means sharper clusters (the property Figure 8 reads off
    visually).
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ReproError("cluster separation needs at least two classes")
    centroids = np.stack([embedding[labels == c].mean(axis=0) for c in classes])
    within = np.mean(
        [
            np.linalg.norm(embedding[labels == c] - centroids[i], axis=1).mean()
            for i, c in enumerate(classes)
        ]
    )
    between = _pairwise_squared_distances(centroids)
    between = np.sqrt(between[np.triu_indices(classes.size, k=1)]).mean()
    return float(between / max(within, 1e-12))
