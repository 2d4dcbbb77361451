"""Numerically-stable neural-network functions over :class:`Tensor`.

These mirror the ``torch.nn.functional`` entry points the paper's training
pipeline relies on: log-softmax + cross-entropy for multi-class datasets,
binary cross-entropy with logits for the two-class ROC-AUC datasets, MSE for
the signal-regression task, and inverted dropout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AutodiffError
from .tensor import Tensor, _notify_alloc, _notify_ewise, is_grad_enabled


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    # The max shift is a piecewise-constant offset: detaching it keeps the
    # computation stable without changing the gradient.
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    logsumexp = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - logsumexp


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Multi-class cross-entropy from raw logits and integer labels.

    Parameters
    ----------
    logits:
        ``(N, C)`` tensor of unnormalized class scores.
    labels:
        ``(N,)`` integer array of target classes.
    reduction:
        ``"mean"`` or ``"sum"``.
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise AutodiffError(f"cross_entropy expects 2-D logits, got {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise AutodiffError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    log_probs = log_softmax(logits, axis=1)
    rows = np.arange(logits.shape[0])
    picked = log_probs[(rows, labels)]
    if reduction == "mean":
        return -picked.mean()
    if reduction == "sum":
        return -picked.sum()
    raise AutodiffError(f"unknown reduction {reduction!r}")


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, reduction: str = "mean"
) -> Tensor:
    """Stable BCE from logits: ``max(x,0) - x*t + log(1+exp(-|x|))``."""
    targets_t = Tensor(np.asarray(targets, dtype=logits.dtype))
    zeros = Tensor(np.zeros_like(logits.data))
    max_part = _maximum(logits, zeros)
    softplus = ((-logits.abs()).exp() + 1.0).log()
    loss = max_part - logits * targets_t + softplus
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    raise AutodiffError(f"unknown reduction {reduction!r}")


def _maximum(a: Tensor, b: Tensor) -> Tensor:
    from .tensor import where

    return where(a.data >= b.data, a, b)


def mse_loss(prediction: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean-squared-error against a constant target array."""
    target_t = Tensor(np.asarray(target, dtype=prediction.dtype))
    diff = prediction - target_t
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    raise AutodiffError(f"unknown reduction {reduction!r}")


def dropout(
    x: Tensor,
    p: float,
    training: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Inverted dropout: zero with probability ``p``, rescale by ``1/(1-p)``.

    A no-op when ``training`` is false or ``p == 0``. Otherwise the mask
    takes 16 random bits per element straight from the generator's raw
    stream: ``rng.bit_generator.random_raw(ceil(size / 4))`` viewed as
    little-endian ``uint16`` (a 32-bit ``MT19937`` output carries two
    elements, so it draws ``ceil(size / 2)``). An element is kept when its
    bits are ≥ ``t = round(p · 2¹⁶)`` (ties to even), clamped to
    ``2¹⁶ − 1``; the effective rate ``t / 2¹⁶`` is within 2⁻¹⁷ of ``p``
    for ``p ≤ 1 − 2⁻¹⁷`` and ``1 − 2⁻¹⁶`` above that. Kept elements are
    scaled by exactly ``1/(1-p)``. The generator advances the same way
    under :func:`no_grad`, where nothing else happens.
    """
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        rng = np.random.default_rng()
    bitgen = rng.bit_generator
    per_output = 2 if isinstance(bitgen, np.random.MT19937) else 4
    outputs = -(-x.data.size // per_output)
    if not is_grad_enabled():
        # Advance the stream as the draw below would, without the draw.
        bitgen.random_raw(outputs, output=False)
        return x
    raw = np.asarray(bitgen.random_raw(outputs), dtype="<u8")
    if per_output == 2:
        raw = raw.astype("<u4")
    bits = raw.view("<u2")[:x.data.size].reshape(x.shape)
    threshold = np.uint16(min(round(p * 65536), 65535))
    mask = (bits >= threshold).astype(x.dtype)
    np.multiply(mask, 1.0 / (1.0 - p), out=mask)
    _notify_alloc(mask, "dropout")
    data = x.data * mask
    _notify_ewise(data)

    def backward(grad: np.ndarray):
        return (grad * mask,)

    return Tensor._make(data, (x,), backward, "dropout")
