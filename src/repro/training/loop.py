"""The one measured training loop, and what every run shares around it.

The learning schemes (:mod:`repro.training.schemes`), link prediction and
the Table 6 baselines differ in *where data lives* — that is the paper's
whole point — and state exactly that as a :class:`Placement`. Everything
the paper's efficiency columns are made of — the epoch budget, stage
timing, spans, device steps, early stopping, the OOM contract and the
result record — exists once, in :func:`run_training`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import telemetry
from ..autodiff.optim import Adam
from ..errors import DeviceOOMError, TrainingError
from ..nn.module import Module
from ..runtime.device import DeviceModel
from ..runtime.profiler import StageProfiler
from .metrics import evaluate


@dataclass
class TrainConfig:
    """Hyperparameters of one training run (Table 4's knobs).

    The paper trains 500 epochs on GPUs; the default here is shorter so
    CPU-only sweeps finish, and every bench records the epoch count used.
    """

    epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 5e-4
    lr_filter: float = 0.05
    weight_decay_filter: float = 5e-5
    hidden: int = 64
    phi0_layers: int = 1   # full-batch pre-transform depth (MB forces 0)
    phi1_layers: int = 1   # post-transform depth (paper MB default is 2)
    dropout: float = 0.5
    batch_size: int = 4096
    patience: int = 50
    eval_every: int = 1
    rho: float = 0.5
    backend: str = "csr"
    metric: str = "accuracy"
    seed: int = 0

    def __post_init__(self):
        # Checked here, not at the first training forward: ``replace()``
        # builds a new config, so a bad rate never reaches precompute.
        if not 0.0 <= self.dropout < 1.0:
            raise TrainingError(
                f"dropout must be in [0, 1), got {self.dropout!r}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass
class RunResult:
    """Outcome of one (filter, dataset, scheme, seed) run."""

    status: str                  # "ok" | "oom"
    test_score: float = float("nan")
    valid_score: float = float("nan")
    epochs_run: int = 0
    profiler: StageProfiler = field(default_factory=StageProfiler,
                                    init=False)
    device_peak_bytes: int = 0
    ram_peak_bytes: int = 0
    filter_params: Optional[Dict[str, np.ndarray]] = None
    #: Best-model outputs over the placement's inference index — the
    #: full-graph (n, C) logits under the three schemes, for node-wise
    #: analyses (degree bias, t-SNE); None after an OOM.
    predictions: Optional[np.ndarray] = None
    #: Graph-partition expressiveness accounting (None for other schemes):
    #: directed edges severed by the clustering and their fraction of m.
    cut_edges: Optional[int] = None
    cut_edge_fraction: Optional[float] = None
    num_parts: Optional[int] = None

    @property
    def is_oom(self) -> bool:
        return self.status == "oom"

    @property
    def precompute_seconds(self) -> float:
        return self.profiler.seconds("precompute")

    @property
    def train_seconds_per_epoch(self) -> float:
        stage = self.profiler.stages.get("train")
        return stage.seconds_per_call if stage else 0.0

    @property
    def inference_seconds(self) -> float:
        return self.profiler.seconds("inference")

    def columns(self, *names: str) -> Dict:
        """The paper's efficiency columns under the experiments' row keys
        (Figure 2, Tables 5–6 and 9–11, Figure 6); ``names`` selects and
        orders a subset for tables that print fewer of them."""
        columns = {
            "status": self.status,
            "precompute_s": self.precompute_seconds,
            "train_s_per_epoch": self.train_seconds_per_epoch,
            "inference_s": self.inference_seconds,
            "ram_bytes": self.ram_peak_bytes,
            "device_bytes": self.device_peak_bytes,
        }
        return {name: columns[name] for name in names} if names else columns

class EarlyStopper:
    """Patience-based early stopping on the validation score (higher=better)."""

    def __init__(self, patience: int):
        self.patience = int(patience)
        self.best_score = -np.inf
        self.best_state: Optional[Dict[str, np.ndarray]] = None
        self.bad_epochs = 0

    def update(self, score: float, model: Module) -> bool:
        """Record a validation score; returns True when training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_state = model.state_dict()
            self.bad_epochs = 0
            return False
        self.bad_epochs += 1
        return self.patience > 0 and self.bad_epochs >= self.patience

    def restore(self, model: Module) -> None:
        """Load the best-validation parameters back into the model."""
        if self.best_state is not None:
            model.load_state_dict(self.best_state)


def build_optimizer(model, config: TrainConfig) -> Adam:
    """Adam with the paper's two parameter groups: transforms vs filter.

    Models exposing ``filter_parameters()`` / ``transform_parameters()``
    (the decoupled family) get separate learning rates and weight decays
    for θ/γ; plain modules fall back to a single group.
    """
    if hasattr(model, "filter_parameters") and model.filter_parameters():
        groups = [
            {
                "params": model.transform_parameters(),
                "lr": config.lr,
                "weight_decay": config.weight_decay,
            },
            {
                "params": model.filter_parameters(),
                "lr": config.lr_filter,
                "weight_decay": config.weight_decay_filter,
            },
        ]
        return Adam(groups)
    return Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)


def make_device(capacity_gib: Optional[float] = None, name: str = "sim") -> DeviceModel:
    """Device factory used by the schemes (None = unbounded profiling)."""
    capacity = None if capacity_gib is None else int(capacity_gib * 1024 ** 3)
    return DeviceModel(capacity_bytes=capacity, name=name)


def grad_global_norm(model: Module) -> float:
    """Global L2 norm over every parameter gradient (0.0 when none set)."""
    total = 0.0
    for param in model.parameters():
        if param.grad is not None:
            total += float(np.sum(param.grad.astype(np.float64) ** 2))
    return math.sqrt(total)


def record_epoch_telemetry(epoch: int, loss: Optional[float],
                           valid_score: Optional[float],
                           stopper: EarlyStopper, model: Module) -> None:
    """Emit one per-epoch telemetry event and count the epoch.

    Feeds the trace's ``epoch`` events (loss, eval metric, grad norm,
    early-stop state), which the report's sparkline table reads, and the
    ``train.epochs`` counter. A no-op when telemetry is disabled, so the
    loop calls it unconditionally; the (mildly costly) grad norm is only
    computed while a tracer is active.
    """
    if not telemetry.enabled():
        return
    grad_norm = grad_global_norm(model)
    telemetry.emit_event(
        "epoch",
        epoch=int(epoch),
        loss=None if loss is None else float(loss),
        valid_score=None if valid_score is None else float(valid_score),
        grad_norm=grad_norm,
        bad_epochs=stopper.bad_epochs,
        best_score=(float(stopper.best_score)
                    if np.isfinite(stopper.best_score) else None),
    )
    telemetry.inc_counter("train.epochs")


def parameters_bytes(model: Module) -> int:
    """Bytes of every weight — resident on the device under any placement."""
    return sum(p.data.nbytes for p in model.parameters())


class Placement:
    """Where one training run's data lives — all that differs between runs.

    The paper's Figure 1 in code (DESIGN.md §6); :func:`run_training` owns
    everything else. A placement provides ``setup(run) -> Module``
    (precompute, build the model, make data resident: every RNG draw
    before the first epoch, every ``to_device`` / ``record_ram``),
    ``steps(epoch)`` (per optimisation step: a context holding what is
    resident only for that step, and a closure returning its loss) and
    ``predict(index)`` (eval-mode outputs, row ``i`` for ``index[i]``,
    each forward inside ``self.device.step()``). The evaluation sets
    default to node classification over the split.
    """

    device_name = "device"
    #: ``op_class`` of the train and inference stages (hardware re-scaling).
    op_class = "propagation"
    #: Evaluate ``split.valid`` every ``eval_every`` epochs and early-stop
    #: on it; False for placements without a validation set.
    validates = True

    def __init__(self, device: Optional[DeviceModel] = None):
        self.device = device or DeviceModel(name=self.device_name)

    def fit(self, graph, split, filter_, config: TrainConfig) -> RunResult:
        """Bind one run's data and train on it."""
        self.graph, self.split, self.filter = graph, split, filter_
        self.config, self.labels = config, graph.labels
        return run_training(self)

    def test_set(self) -> Tuple[np.ndarray, object, np.ndarray]:
        """Inference index, which of its output rows are scored, and their
        targets; called once, inside the inference stage."""
        return (np.arange(self.graph.num_nodes), self.split.test,
                self.labels[self.split.test])


def run_training(placement: Placement) -> RunResult:
    """Train and evaluate one placement — the only epoch loop in the repo.

    One ``train`` stage per epoch and one ``inference`` stage, the
    ``epoch`` / ``forward`` / ``backward`` spans, one ``device.step()``
    per optimisation step, early stopping with restore-best, and a
    simulated OOM anywhere becomes ``status="oom"`` with the stage table
    and memory peaks still filled.
    """
    device, config = placement.device, placement.config
    result = RunResult(status="ok")
    profiler = result.profiler
    try:
        model = placement.setup(result)
        optimizer = build_optimizer(model, config)
        stopper = EarlyStopper(config.patience)

        for epoch in range(config.epochs):
            model.train()
            losses = []
            with profiler.stage("train", op_class=placement.op_class), \
                    telemetry.span("epoch", index=epoch):
                for residency, step in placement.steps(epoch):
                    with residency, device.step():
                        with telemetry.span("forward"):
                            loss = step()
                        model.zero_grad()
                        with telemetry.span("backward"):
                            loss.backward()
                        optimizer.step()
                        losses.append(float(loss.data))
            result.epochs_run = epoch + 1
            score, stop = None, False
            if placement.validates and (epoch + 1) % config.eval_every == 0:
                model.eval()
                valid = placement.split.valid
                score = evaluate(config.metric, placement.predict(valid),
                                 placement.labels[valid])
                stop = stopper.update(score, model)
            record_epoch_telemetry(
                epoch, float(np.mean(losses)) if losses else None,
                score, stopper, model)
            if stop:
                break

        stopper.restore(model)
        model.eval()
        with profiler.stage("inference", op_class=placement.op_class):
            index, scored, targets = placement.test_set()
            result.predictions = placement.predict(index)
        result.test_score = evaluate(
            config.metric, result.predictions[scored], targets)
        result.valid_score = stopper.best_score
        if hasattr(model, "numpy_filter_params"):
            result.filter_params = model.numpy_filter_params()
    except DeviceOOMError:
        result.status = "oom"
    result.device_peak_bytes = device.peak_bytes
    profiler.record_device("train", device.peak_bytes)
    result.ram_peak_bytes = profiler.peak_ram_bytes()
    return result
