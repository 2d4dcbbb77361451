"""Training: schemes (FB/MB/GP), loop machinery, metrics."""

from .loop import (
    EarlyStopper,
    Placement,
    RunResult,
    TrainConfig,
    build_optimizer,
    grad_global_norm,
    make_device,
    record_epoch_telemetry,
    run_training,
)
from .metrics import METRICS, accuracy, evaluate, macro_f1, r2_score, roc_auc
from .schemes import (
    SCHEMES,
    FullBatchTrainer,
    GraphPartitionTrainer,
    MiniBatchTrainer,
)

__all__ = [
    "TrainConfig",
    "RunResult",
    "EarlyStopper",
    "Placement",
    "run_training",
    "build_optimizer",
    "make_device",
    "grad_global_norm",
    "record_epoch_telemetry",
    "FullBatchTrainer",
    "MiniBatchTrainer",
    "GraphPartitionTrainer",
    "SCHEMES",
    "accuracy",
    "roc_auc",
    "r2_score",
    "macro_f1",
    "evaluate",
    "METRICS",
]
