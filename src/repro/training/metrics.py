"""Evaluation metrics, implemented from scratch.

The paper's Table 3 assigns accuracy to multi-class datasets and ROC AUC
to the binary ones; the regression task of Table 7 uses R². All metrics
take raw numpy arrays so they work on any scheme's outputs.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrainingError


def _check_rows(metric: str, outputs: np.ndarray, labels: np.ndarray) -> None:
    """Reject labels whose length differs from the outputs' first axis."""
    if labels.shape[:1] != outputs.shape[:1]:
        raise TrainingError(
            f"{metric}: labels of shape {labels.shape} for outputs of shape "
            f"{outputs.shape}"
        )


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy from (N, C) logits and integer labels."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise TrainingError(f"accuracy expects (N, C) logits, got {logits.shape}")
    _check_rows("accuracy", logits, labels)
    predictions = logits.argmax(axis=1)
    return float((predictions == labels).mean())


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary ROC AUC via the rank statistic (ties get midranks).

    ``scores`` may be (N,) raw scores, (N, 1), or (N, 2) logits — for the
    latter, the positive-class margin is used. Labels must be 0/1 (or
    bool), one per score.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_rows("roc_auc", scores, labels)
    if not np.isin(labels, (0, 1)).all():
        raise TrainingError(
            f"roc_auc expects 0/1 labels, got {np.unique(labels)}"
        )
    if scores.ndim == 2:
        if scores.shape[1] == 1:
            scores = scores[:, 0]
        elif scores.shape[1] == 2:
            scores = scores[:, 1] - scores[:, 0]
        else:
            raise TrainingError(
                f"roc_auc expects binary scores, got shape {scores.shape}"
            )
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        raise TrainingError("roc_auc needs both classes present")
    ranks = _midranks(scores)
    positive_rank_sum = ranks[labels == 1].sum()
    auc = (positive_rank_sum - positives * (positives + 1) / 2.0) / (positives * negatives)
    return float(auc)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_values = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def r2_score(prediction: np.ndarray, target: np.ndarray) -> float:
    """Coefficient of determination, column-averaged for multi-channel."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise TrainingError(
            f"shape mismatch: prediction {prediction.shape} vs target {target.shape}"
        )
    if prediction.ndim == 1:
        prediction = prediction[:, None]
        target = target[:, None]
    residual = ((target - prediction) ** 2).sum(axis=0)
    total = ((target - target.mean(axis=0, keepdims=True)) ** 2).sum(axis=0)
    total = np.maximum(total, 1e-12)
    return float(np.mean(1.0 - residual / total))


def macro_f1(logits: np.ndarray, labels: np.ndarray) -> float:
    """Macro-averaged F1 over classes present in the labels."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    _check_rows("macro_f1", logits, labels)
    predictions = logits.argmax(axis=1)
    scores = []
    for cls in np.unique(labels):
        tp = int(((predictions == cls) & (labels == cls)).sum())
        fp = int(((predictions == cls) & (labels != cls)).sum())
        fn = int(((predictions != cls) & (labels == cls)).sum())
        denominator = 2 * tp + fp + fn
        scores.append(2 * tp / denominator if denominator else 0.0)
    return float(np.mean(scores))


METRICS = {
    "accuracy": accuracy,
    "roc_auc": roc_auc,
    "r2": r2_score,
    "macro_f1": macro_f1,
}


def evaluate(metric: str, outputs: np.ndarray, targets: np.ndarray) -> float:
    """Dispatch on metric name (the Table 3 ``Metric`` column)."""
    fn = METRICS.get(metric)
    if fn is None:
        raise TrainingError(f"unknown metric {metric!r}; known: {list(METRICS)}")
    return fn(outputs, targets)
