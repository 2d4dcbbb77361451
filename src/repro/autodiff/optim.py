"""Adam with parameter groups.

The paper's hyperparameter protocol (Table 4) tunes the learning rate and
weight decay of the transformation weights (φ0, φ1) separately from those of
the filter parameters (θ, γ). Parameter groups carry per-group ``lr`` and
``weight_decay`` to support exactly that.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from ..errors import TrainingError
from .tensor import Tensor

ParamGroup = dict


def _normalize_groups(
    params: Union[Sequence[Tensor], Sequence[ParamGroup]],
    lr: float,
    weight_decay: float,
) -> List[ParamGroup]:
    params = list(params)
    if not params:
        raise TrainingError("optimizer received no parameters")
    if isinstance(params[0], dict):
        groups = []
        for group in params:
            if "params" not in group:
                raise TrainingError("parameter group missing 'params' key")
            groups.append(
                {
                    "params": list(group["params"]),
                    "lr": float(group.get("lr", lr)),
                    "weight_decay": float(group.get("weight_decay", weight_decay)),
                }
            )
        return groups
    return [{"params": params, "lr": float(lr), "weight_decay": float(weight_decay)}]


class Adam:
    """Adam (Kingma & Ba) with bias correction over :class:`Tensor` leaves.

    Weight decay is L2: ``weight_decay * param`` is added to the gradient
    before the moments are updated.
    """

    def __init__(
        self,
        params: Union[Sequence[Tensor], Sequence[ParamGroup]],
        lr: float = 1e-2,
        weight_decay: float = 0.0,
    ):
        self.groups = _normalize_groups(params, lr, weight_decay)
        for group in self.groups:
            for param in group["params"]:
                if not isinstance(param, Tensor) or not param.requires_grad:
                    raise TrainingError("optimizer parameters must require grad")
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self._step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self) -> None:
        """Apply one update; parameters without gradients are skipped."""
        self._step_count += 1
        for group in self.groups:
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad
                if group["weight_decay"]:
                    grad = grad + group["weight_decay"] * param.data
                key = id(param)
                m = self._m.get(key)
                v = self._v.get(key)
                if m is None:
                    m = np.zeros_like(param.data)
                    v = np.zeros_like(param.data)
                m = self.beta1 * m + (1.0 - self.beta1) * grad
                v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
                self._m[key] = m
                self._v[key] = v
                m_hat = m / (1.0 - self.beta1 ** self._step_count)
                v_hat = v / (1.0 - self.beta2 ** self._step_count)
                param.data = param.data - group["lr"] * m_hat / (np.sqrt(v_hat) + self.eps)
