"""Signal regression: fit a filter to a known transfer function (Table 7).

Given an input signal x and the exact target ``z = g*(Λ) ∗ x`` (built by
:func:`repro.datasets.make_regression_task`), the filter's parameters are
trained to minimize MSE; the reported R² directly measures how much of
the transfer function's shape the filter family can express — the paper's
cleanest probe of "inherent frequency response" (RQ7).

Fixed filters have nothing to train, so a closed-form affine calibration
(scale + offset, what a linear output layer would learn) is applied before
scoring; variable and bank filters train θ/γ with Adam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..autodiff import functional as F
from ..autodiff.optim import Adam
from ..autodiff.tensor import Tensor
from ..datasets.signals import make_regression_task
from ..filters.base import PropagationContext
from ..filters.registry import make_filter
from ..graph.graph import Graph
from ..nn.module import Parameter
from ..training.metrics import r2_score


@dataclass
class RegressionResult:
    """Outcome of fitting one filter to one signal function."""

    filter_name: str
    signal_name: str
    r2: float
    learned_params: Optional[Dict[str, np.ndarray]] = None


def _affine_calibrate(prediction: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Closed-form per-run scale+offset (a linear readout's best fit)."""
    x = prediction.reshape(-1)
    y = target.reshape(-1)
    var = float(((x - x.mean()) ** 2).sum())
    if var < 1e-12:
        return np.full_like(prediction, y.mean())
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / var)
    intercept = float(y.mean() - slope * x.mean())
    return slope * prediction + intercept


def run_signal_regression(
    graph: Graph,
    filter_name: str,
    signal_name: str,
    num_hops: int = 10,
    epochs: int = 200,
    seed: int = 0,
) -> RegressionResult:
    """Fit one filter to one of the five Table 7 transfer functions.

    Runs on graphs small enough for exact eigendecomposition (the target
    requires the true spectrum), at ρ = 0.5 with Adam at lr 0.05.
    """
    rho = 0.5
    task = make_regression_task(graph, signal_name, seed=seed, rho=rho)
    filter_ = make_filter(filter_name, num_hops=num_hops,
                          num_features=task.input_signal.shape[1])
    ctx_factory = lambda: PropagationContext.for_graph(graph, rho)

    spec = filter_.parameter_spec()
    if not spec:
        output = filter_.forward(ctx_factory(), task.input_signal)
        calibrated = _affine_calibrate(np.asarray(output), task.target_signal)
        return RegressionResult(filter_name, task.name,
                                r2_score(calibrated, task.target_signal))

    params = {name: Parameter(s.init.copy()) for name, s in spec.items()}
    optimizer = Adam(list(params.values()), lr=0.05)
    x = Tensor(task.input_signal)
    best_r2 = -np.inf
    best_params: Dict[str, np.ndarray] = {}
    for _ in range(epochs):
        output = filter_.forward(ctx_factory(), x, params)
        loss = F.mse_loss(output, task.target_signal)
        for p in params.values():
            p.grad = None
        loss.backward()
        optimizer.step()
        current = r2_score(output.data, task.target_signal)
        if current > best_r2:
            best_r2 = current
            best_params = {k: v.data.copy() for k, v in params.items()}
    return RegressionResult(filter_name, task.name, float(best_r2), best_params)
