"""Benchmark tasks: node classification, link prediction, signal regression."""

from .link_prediction import LinkPredictor, run_link_prediction
from .node_classification import (
    SeedSummary,
    build_task_filter,
    run_node_classification,
    run_seeds,
)
from .signal_regression import RegressionResult, run_signal_regression

__all__ = [
    "run_node_classification",
    "run_seeds",
    "build_task_filter",
    "SeedSummary",
    "run_link_prediction",
    "LinkPredictor",
    "run_signal_regression",
    "RegressionResult",
]
