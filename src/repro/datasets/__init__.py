"""Datasets: Table 3 registry, synthetic generation, splits, signals."""

from .registry import (
    DATASET_NAMES,
    DATASETS,
    DatasetSpec,
    get_spec,
)
from .signals import (
    SIGNAL_FUNCTIONS,
    SIGNAL_NAMES,
    RegressionTask,
    make_regression_task,
)
from .splits import Split, edge_split, random_split, stratified_split
from .synthesis import SynthesisConfig, synthesize

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "DATASET_NAMES",
    "get_spec",
    "SynthesisConfig",
    "synthesize",
    "Split",
    "random_split",
    "stratified_split",
    "edge_split",
    "SIGNAL_FUNCTIONS",
    "SIGNAL_NAMES",
    "RegressionTask",
    "make_regression_task",
]
