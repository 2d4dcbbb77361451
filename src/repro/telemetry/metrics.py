"""Counters and gauges for op-level data.

The registry is the numeric side of telemetry: op hooks in
:mod:`repro.autodiff` feed FLOP/byte counters and the device model feeds
peak gauges. Everything is designed for cheap unlocked reads and locked
writes, and for a plain-dict :meth:`MetricsRegistry.snapshot` that
serializes into the trace. Per-epoch loss / score / grad norm and span
durations are not metrics: the ``epoch`` and span events carry them.
"""

from __future__ import annotations

import threading
from typing import Dict


class Counter:
    """Monotonically increasing count (calls, FLOPs, bytes)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value plus the maximum ever seen (peaks)."""

    __slots__ = ("name", "value", "max_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.max_value: float = float("-inf")
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            if value > self.max_value:
                self.max_value = value


class MetricsRegistry:
    """Get-or-create registry of named counters and gauges."""

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
        return metric

    def counter_values(self) -> Dict[str, float]:
        """Point-in-time ``name -> value`` read of every counter.

        Unlocked reads (counter values are single attributes), sorted for
        stable output — the cheap read a caller takes before and after a
        region to see which counters it moved.
        """
        return {name: counter.value
                for name, counter in sorted(self._counters.items())}

    def merge_from(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry (e.g. a worker process's) into this one.

        Counters add, gauges keep the other shard's last value and the max
        of both peaks. Returns ``self`` for chaining over many shards.
        """
        for name, counter in sorted(other._counters.items()):
            self.counter(name).inc(counter.value)
        for name, gauge in sorted(other._gauges.items()):
            ours = self.gauge(name)
            if gauge.max_value > ours.max_value:
                ours.set(gauge.max_value)
            ours.set(gauge.value)
        return self

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-dict view of every metric; an empty section is omitted.

        This one serialization is the trace's ``metrics`` event, the run
        registry's ``metrics`` block and a worker shard's metrics:
        :meth:`from_snapshot` rebuilds a registry from it that merges
        (:meth:`merge_from`) exactly like the original. Locks make the
        registry itself unpicklable; its snapshot is plain data.
        """
        out: Dict[str, Dict] = {}
        if self._counters:
            out["counters"] = {n: c.value for n, c in sorted(self._counters.items())}
        if self._gauges:
            out["gauges"] = {
                n: {"value": g.value, "max": g.max_value}
                for n, g in sorted(self._gauges.items())
            }
        return out

    @classmethod
    def from_snapshot(cls, snapshot: Dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        for name, value in (snapshot.get("counters") or {}).items():
            registry.counter(name).value = value
        for name, payload in (snapshot.get("gauges") or {}).items():
            gauge = registry.gauge(name)
            gauge.value = payload.get("value", 0.0)
            gauge.max_value = payload.get("max", float("-inf"))
        return registry
