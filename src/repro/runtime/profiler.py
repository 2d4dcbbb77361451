"""Stage-level profiling: wall time and memory per learning stage.

The paper reports efficiency per *stage* — precomputation, training (per
epoch), inference — with RAM and device memory tracked separately
(Figure 2, Tables 9 & 11). :class:`StageProfiler` is the collector behind
those tables: trainers open named stages and record byte counts for what
they hold in host RAM; device peaks come from the paired
:class:`~repro.runtime.device.DeviceModel`.

Since the telemetry layer landed, the profiler is a *view* over the span
tracer: every stage entry also opens a ``kind="stage"`` span on the active
:mod:`repro.telemetry` tracer (a no-op while telemetry is disabled), and
:meth:`StageProfiler.from_events` rebuilds identical stage statistics from
a recorded trace, so any JSONL artifact can be re-aggregated into the
paper's tables offline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping

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

    def peak_device_bytes(self) -> int:
        return max((stage.device_bytes for stage in self.stages.values()), default=0)

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

    def merge(self, other: "StageProfiler") -> None:
        """Fold another profiler's stages into this one (multi-seed runs).

        Timings and calls accumulate; memory peaks take the max. The
        ``op_class`` keeps the first non-default classification: a stage
        that was never entered on the incoming side (still carrying the
        default) must not clobber an explicit classification here, and an
        already-classified stage keeps its original class.
        """
        for name, stage in other.stages.items():
            mine = self._stage(name)
            mine.seconds += stage.seconds
            mine.calls += stage.calls
            mine.ram_bytes = max(mine.ram_bytes, stage.ram_bytes)
            mine.device_bytes = max(mine.device_bytes, stage.device_bytes)
            if mine.op_class == DEFAULT_OP_CLASS and stage.op_class != DEFAULT_OP_CLASS:
                mine.op_class = stage.op_class

    # ------------------------------------------------------------------
    # trace view
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "StageProfiler":
        """Rebuild stage statistics from recorded telemetry events.

        Aggregates ``kind="stage"`` span events (accumulating seconds and
        calls, exactly like live :meth:`stage` entries) and ``stage.memory``
        events (taking peaks), making the profiler a pure view over a
        trace: ``StageProfiler.from_events(load_events(path)).summary()``
        reproduces the live run's summary.
        """
        profiler = cls()
        for event in events:
            etype = event.get("type")
            if etype == "span" and event.get("attrs", {}).get("kind") == "stage":
                stats = profiler._stage(event["name"])
                stats.seconds += float(event.get("duration_s", 0.0))
                stats.calls += 1
                op_class = event["attrs"].get("op_class")
                if op_class and stats.op_class == DEFAULT_OP_CLASS:
                    stats.op_class = op_class
            elif etype == "stage.memory":
                stats = profiler._stage(event["stage"])
                nbytes = int(event.get("bytes", 0))
                if event.get("kind") == "device":
                    stats.device_bytes = max(stats.device_bytes, nbytes)
                else:
                    stats.ram_bytes = max(stats.ram_bytes, nbytes)
        return profiler
