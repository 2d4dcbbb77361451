"""Allocation ledger: byte-exact live-memory accounting with attribution.

The paper's memory axis (Tables 5/6 report RAM/GPU peaks and OOM cells)
needs more than a sampled RSS curve: it needs to know *which stage, op
family, and tensor* held the bytes at the high-water mark. This module is
that instrument. An :class:`AllocationLedger` subscribes to the autodiff
engine's multi-hook allocation dispatch
(:func:`repro.autodiff.tensor.add_allocation_hook`) and tracks:

- **Live bytes** — every array the engine materializes increments the
  ledger; a ``weakref.finalize`` registered on the array decrements it
  when the array is garbage-collected, so ``live_bytes`` is the accounted
  resident set of engine-allocated memory at any instant (views over a
  shared buffer count fully, like the :class:`~repro.runtime.device.
  DeviceModel` activation accounting they mirror).
- **Peak attribution** — on every new high-water mark the ledger snapshots
  the live bytes held per span-tree path and per op family, plus the
  path/op of the allocation that set the peak. Combined with the
  per-span inclusive/exclusive ``mem_bytes`` columns the tracer keeps,
  this answers "what was resident when memory peaked, and who put it
  there".
- **Top-N largest allocations** — a bounded ranking of the biggest single
  arrays ever allocated, with their op and span path.

Determinism discipline: allocation *totals* (``total_alloc_bytes``,
``alloc_count``, ``alloc_by_op``) are functions of the executed code path
only, which is what lets pooled worker shards fold into the parent ledger
(:meth:`AllocationLedger.merge_summary`, driven by
:func:`repro.telemetry.fold_shard`) with serial totals equal to pooled
totals. Free-side quantities (``live_bytes``, ``peak_bytes``) depend on
garbage-collection timing and process-lifetime caches and are reported,
not byte-identity-gated. Nothing here lands in result payloads or in
:func:`repro.bench.io.deterministic_counters` — the ledger is
observability, never payload.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Mapping, Optional

from .rss import current_rss_bytes, peak_rss_bytes

#: Schema tag stamped into every ledger summary (the ``memory`` event and
#: the registry record's ``memory`` block).
MEMORY_SCHEMA = "repro.telemetry.memory/v1"

#: Span path used for allocations made outside any open span.
TOP_PATH = "(top)"


class AllocationLedger:
    """Live-bytes ledger over the autodiff engine's allocation stream.

    Parameters
    ----------
    top_n:
        How many of the largest single allocations to rank.
    """

    def __init__(self, top_n: int = 8):
        # Reentrant: the cyclic GC can run a finalizer (_on_free) in the
        # middle of on_alloc's own critical section on the same thread.
        self._lock = threading.RLock()
        self.top_n = int(top_n)
        self.closed = False

        self.live_bytes = 0
        self.peak_bytes = 0
        self.total_alloc_bytes = 0
        self.total_freed_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        #: Total bytes ever allocated per op family (schedule-invariant).
        self.alloc_by_op: Dict[str, int] = {}
        #: Currently-live bytes per span path / op family.
        self.live_by_path: Dict[str, int] = {}
        self.live_by_op: Dict[str, int] = {}
        #: Snapshots taken at the last new high-water mark.
        self.peak_path = ""
        self.peak_op = ""
        self.peak_by_path: Dict[str, int] = {}
        self.peak_by_op: Dict[str, int] = {}
        #: Largest single allocations ever seen, descending by size.
        self.top_allocations: List[Dict] = []

    # ------------------------------------------------------------------
    # allocation stream
    # ------------------------------------------------------------------
    def on_alloc(self, nbytes: int, array=None, op: str = "leaf",
                 path: str = TOP_PATH) -> None:
        """Account one engine allocation (the hook-side entry point)."""
        nbytes = int(nbytes)
        with self._lock:
            self.live_bytes += nbytes
            self.total_alloc_bytes += nbytes
            self.alloc_count += 1
            self.alloc_by_op[op] = self.alloc_by_op.get(op, 0) + nbytes
            self.live_by_path[path] = self.live_by_path.get(path, 0) + nbytes
            self.live_by_op[op] = self.live_by_op.get(op, 0) + nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes
                self.peak_path = path
                self.peak_op = op
                self.peak_by_path = dict(self.live_by_path)
                self.peak_by_op = dict(self.live_by_op)
            self._rank(nbytes, op, path)
        if array is not None:
            try:
                weakref.finalize(array, self._on_free, nbytes, op, path)
            except TypeError:  # non-weakref-able payloads: no free tracking
                pass

    def _rank(self, nbytes: int, op: str, path: str) -> None:
        top = self.top_allocations
        if len(top) >= self.top_n and nbytes <= top[-1]["nbytes"]:
            return
        top.append({"nbytes": nbytes, "op": op, "path": path,
                    "seq": self.alloc_count})
        # Stable on seq: equal sizes rank in allocation order.
        top.sort(key=lambda e: (-e["nbytes"], e["seq"]))
        del top[self.top_n:]

    def _on_free(self, nbytes: int, op: str, path: str) -> None:
        """Finalizer target: the array this entry accounted was collected."""
        if self.closed:
            return
        with self._lock:
            self.live_bytes -= nbytes
            self.total_freed_bytes += nbytes
            self.free_count += 1
            for table, key in ((self.live_by_path, path),
                               (self.live_by_op, op)):
                remaining = table.get(key, 0) - nbytes
                if remaining > 0:
                    table[key] = remaining
                else:
                    table.pop(key, None)

    # ------------------------------------------------------------------
    # shard folding
    # ------------------------------------------------------------------
    def merge_summary(self, summary: Mapping) -> None:
        """Fold one worker shard's ledger summary into this ledger.

        Allocation totals and per-op totals add — the quantities that are
        schedule-invariant, so pooled totals equal serial totals. The peak
        is a max: if the shard's high-water mark beats this ledger's, its
        attribution snapshot is adopted wholesale (peaks in different
        processes never overlap in time, so summing them would invent a
        peak nobody measured). The shard's residual ``live_bytes`` (arrays
        still referenced at worker shutdown) dies with the worker process
        and is deliberately not added.
        """
        if not isinstance(summary, Mapping):
            return
        with self._lock:
            self.total_alloc_bytes += int(summary.get("total_alloc_bytes") or 0)
            self.total_freed_bytes += int(summary.get("total_freed_bytes") or 0)
            self.alloc_count += int(summary.get("alloc_count") or 0)
            self.free_count += int(summary.get("free_count") or 0)
            for op, nbytes in (summary.get("alloc_by_op") or {}).items():
                self.alloc_by_op[op] = self.alloc_by_op.get(op, 0) + int(nbytes)
            shard_peak = int(summary.get("peak_bytes") or 0)
            if shard_peak > self.peak_bytes:
                self.peak_bytes = shard_peak
                attribution = summary.get("peak_attribution") or {}
                self.peak_path = str(attribution.get("path") or "")
                self.peak_op = str(attribution.get("op") or "")
                self.peak_by_path = {
                    str(k): int(v) for k, v in
                    (attribution.get("live_by_path") or {}).items()}
                self.peak_by_op = {
                    str(k): int(v) for k, v in
                    (attribution.get("live_by_op") or {}).items()}
            for entry in summary.get("top_allocations") or ():
                if isinstance(entry, Mapping) and "nbytes" in entry:
                    self._rank(int(entry["nbytes"]),
                               str(entry.get("op") or ""),
                               str(entry.get("path") or ""))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict:
        """Serializable snapshot: the ``memory`` event / registry block."""
        with self._lock:
            return {
                "schema": MEMORY_SCHEMA,
                "live_bytes": self.live_bytes,
                "peak_bytes": self.peak_bytes,
                "total_alloc_bytes": self.total_alloc_bytes,
                "total_freed_bytes": self.total_freed_bytes,
                "alloc_count": self.alloc_count,
                "free_count": self.free_count,
                "alloc_by_op": dict(sorted(self.alloc_by_op.items())),
                "peak_attribution": {
                    "path": self.peak_path,
                    "op": self.peak_op,
                    "live_by_path": dict(sorted(self.peak_by_path.items())),
                    "live_by_op": dict(sorted(self.peak_by_op.items())),
                },
                "top_allocations": [
                    {k: e[k] for k in ("nbytes", "op", "path")}
                    for e in self.top_allocations],
                "rss_peak_bytes": peak_rss_bytes(),
                "rss_current_bytes": current_rss_bytes(),
            }

    def close(self) -> None:
        """Stop accounting: late finalizers (gc after shutdown) are ignored."""
        self.closed = True


def memory_block(events=(), metrics: Optional[Mapping] = None) -> Dict:
    """The registry record's ``memory`` block from a finished run's events.

    Takes the last ``{"type": "memory", ...}`` event (the ledger summary
    emitted at telemetry shutdown, shard summaries folded in) and augments
    it with the DeviceModel peak (the
    max over ``device.*.peak_bytes`` gauges in the metrics snapshot) and
    the **accounting-coverage ratios** — how much of the measured RSS peak
    the ledger explains and how much of the ledger the device accounting
    model covers. Returns ``{}`` when no ledger ran, so pre-v5 and
    ledger-less records read the same.
    """
    summary: Dict = {}
    for event in events:
        if event.get("type") == "memory" \
                and isinstance(event.get("memory"), Mapping):
            summary = dict(event["memory"])
    if not summary:
        return {}

    device_peak = 0
    gauges = (metrics or {}).get("gauges") or {}
    if isinstance(gauges, Mapping):
        for name, value in gauges.items():
            if not (str(name).startswith("device.")
                    and str(name).endswith(".peak_bytes")):
                continue
            # Snapshots carry gauges as {"value", "max"} mappings
            # (MetricsRegistry.to_state / gauge_values); accept bare
            # scalars too for hand-built test fixtures.
            if isinstance(value, Mapping):
                value = value.get("max", value.get("value"))
            if isinstance(value, (int, float)):
                device_peak = max(device_peak, int(value))
    summary["device_peak_bytes"] = device_peak

    # Shared-memory term store footprint (pooled sweeps with
    # --shared-terms): the peak published payload bytes, folded in from
    # whichever process set the gauge highest. Absent gauge → no key, so
    # serial/unshared records are byte-identical to pre-shm ones.
    shm_peak = None
    if isinstance(gauges, Mapping):
        value = gauges.get("shm.store.peak_bytes")
        if isinstance(value, Mapping):
            value = value.get("max", value.get("value"))
        if isinstance(value, (int, float)):
            shm_peak = int(value)
    if shm_peak is not None:
        summary["shm_peak_bytes"] = shm_peak

    # Blocked-tier accounting (schema v6): bytes living in spill files or
    # memory-mapped read-only are *not* allocation-ledger RAM — they are
    # reported next to the peak, never inside it, so peak attribution
    # stays truthful. All-zero (tier never active) → no key, keeping
    # v5-shaped records byte-identical when the tier is off.
    counters = (metrics or {}).get("counters") or {}
    if not isinstance(counters, Mapping):
        counters = {}

    def _count(name: str) -> int:
        value = counters.get(name)
        return int(value) if isinstance(value, (int, float)) else 0

    mmap_peak = 0
    if isinstance(gauges, Mapping):
        value = gauges.get("blocked.mmap_peak_bytes")
        if isinstance(value, Mapping):
            value = value.get("max", value.get("value"))
        if isinstance(value, (int, float)):
            mmap_peak = int(value)
    blocked = {
        "spmm_calls": _count("blocked.spmm_calls"),
        "tiles": _count("blocked.tiles"),
        "spill_bytes": _count("blocked.spill_bytes"),
        "spill_terms": _count("plan.terms.spill"),
        "spill_loads": _count("plan.terms.spill_load"),
        "mmap_bytes": mmap_peak,
    }
    if any(blocked.values()):
        summary["blocked"] = blocked

    rss_peak = summary.get("rss_peak_bytes") or 0
    ledger_peak = summary.get("peak_bytes") or 0
    summary["coverage"] = {
        # How much of the measured process peak the ledger accounts for.
        "ledger_vs_rss": round(ledger_peak / rss_peak, 4) if rss_peak else None,
        # How much of the accounted peak the device model metered.
        "device_vs_ledger": (round(device_peak / ledger_peak, 4)
                             if ledger_peak else None),
    }
    return summary
