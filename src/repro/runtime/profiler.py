"""Stage-level profiling: wall time and memory per learning stage.

The paper reports efficiency per *stage* — precomputation, training (per
epoch), inference — with RAM and device memory tracked separately
(Figure 2, Tables 9 & 11). :class:`StageProfiler` is the collector behind
those tables: trainers open named stages and record byte counts for what
they hold in host RAM; device peaks come from the paired
:class:`~repro.runtime.device.DeviceModel`.

Every stage entry also opens a ``kind="stage"`` span on the active
:mod:`repro.telemetry` tracer (a no-op while telemetry is disabled), so a
recorded trace carries the same stages for
:func:`repro.telemetry.report.aggregate_spans` to fold offline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator

from .. import telemetry

#: The op_class used before a stage is explicitly classified.
DEFAULT_OP_CLASS = "transform"


@dataclass
class StageStats:
    """Accumulated measurements for one named stage."""

    seconds: float = 0.0
    calls: int = 0
    ram_bytes: int = 0
    device_bytes: int = 0
    #: Operation class for hardware re-scaling: "propagation" | "transform"
    op_class: str = DEFAULT_OP_CLASS

    @property
    def seconds_per_call(self) -> float:
        """Throughput view; 0.0 (not NaN/inf) for never-entered stages."""
        return self.seconds / self.calls if self.calls else 0.0


class StageProfiler:
    """Collects per-stage wall time and memory for one benchmark run."""

    def __init__(self):
        self.stages: Dict[str, StageStats] = {}

    def _stage(self, name: str) -> StageStats:
        stage = self.stages.get(name)
        if stage is None:
            stage = StageStats()
            self.stages[name] = stage
        return stage

    @contextmanager
    def stage(self, name: str, op_class: str = DEFAULT_OP_CLASS) -> Iterator[StageStats]:
        """Time a stage; repeated entries accumulate (per-epoch training)."""
        stats = self._stage(name)
        stats.op_class = op_class
        start = time.perf_counter()
        with telemetry.span(name, kind="stage", op_class=op_class):
            try:
                yield stats
            finally:
                stats.seconds += time.perf_counter() - start
                stats.calls += 1

    def record_ram(self, name: str, nbytes: int) -> None:
        """Record peak host-RAM bytes attributed to a stage."""
        stats = self._stage(name)
        stats.ram_bytes = max(stats.ram_bytes, int(nbytes))
        telemetry.emit_event("stage.memory", stage=name, kind="ram",
                             bytes=int(nbytes))

    def record_device(self, name: str, nbytes: int) -> None:
        """Record peak device bytes attributed to a stage."""
        stats = self._stage(name)
        stats.device_bytes = max(stats.device_bytes, int(nbytes))
        telemetry.emit_event("stage.memory", stage=name, kind="device",
                             bytes=int(nbytes))

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def seconds(self, name: str) -> float:
        return self.stages[name].seconds if name in self.stages else 0.0

    def peak_ram_bytes(self) -> int:
        return max((stage.ram_bytes for stage in self.stages.values()), default=0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict view used by the report formatter."""
        return {
            name: {
                "seconds": stage.seconds,
                "seconds_per_call": stage.seconds_per_call,
                "calls": stage.calls,
                "ram_bytes": stage.ram_bytes,
                "device_bytes": stage.device_bytes,
                "op_class": stage.op_class,
            }
            for name, stage in self.stages.items()
        }

    def reset(self) -> None:
        """Drop all recorded stages (reuse one profiler across runs)."""
        self.stages.clear()
