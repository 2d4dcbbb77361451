"""The memory observatory: allocation ledger, attribution, and exports.

Four layers under test, mirroring the observatory's data path:

1. **Hook dispatch** (:mod:`repro.autodiff.tensor`): multiple subscribers
   receive every engine allocation; ``DeviceModel.step()`` no longer
   displaces the span tracer's attribution (the bug the multi-hook
   refactor fixes).
2. **Ledger accounting** (:mod:`repro.telemetry.memory`): live/peak
   bytes, weakref-driven free detection, peak attribution snapshots,
   top-N ranking, and worker-shard fold semantics (allocation totals are
   schedule-invariant; peaks max with attribution adopted).
3. **Span attribution** (:mod:`repro.telemetry.spans` / ``report``): the
   exclusive per-span ledger bytes telescope back to the root spans'
   inclusive totals — hypothesis-checked over random span/alloc scripts.
4. **Exports**: the trace report's memory section, registry schema v5
   ``memory`` blocks (with v4 backward compatibility) and their registry
   diff rows, and the CLI wiring.
"""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor
from repro.autodiff import tensor as tensor_mod
from repro.runtime.device import DeviceModel
from repro.runtime.pool import Cell, PoolConfig, execute_cells
from repro.telemetry import memory
from repro.telemetry.memory import (
    MEMORY_SCHEMA,
    TOP_PATH,
    AllocationLedger,
    memory_block,
)
from repro.telemetry.report import aggregate_spans, render_memory
from repro.telemetry.rss import current_rss_bytes, peak_rss_bytes


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with telemetry (and all hooks) down."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()
    tensor_mod._allocation_hooks = ()


def _tensor(kib: int, **kwargs) -> Tensor:
    """One engine allocation of exactly ``kib`` KiB (float32: no cast)."""
    return Tensor(np.zeros(kib * 256, dtype=np.float32), **kwargs)


# --- module-level cell fn: picklable under any pool start method --------

def _alloc_cell(kib):
    with telemetry.span("work", kib=kib):
        t = Tensor(np.zeros(kib * 1024, dtype=np.float32))
        u = t + t
    return float(u.data[0])


# ---------------------------------------------------------------------------
# 1. multi-subscriber allocation hook dispatch
# ---------------------------------------------------------------------------

class TestAllocationHookDispatch:
    def test_all_subscribers_receive_each_allocation(self):
        seen_a, seen_b = [], []
        tensor_mod.add_allocation_hook(
            lambda n, arr, op: seen_a.append((n, op)))
        tensor_mod.add_allocation_hook(
            lambda n, arr, op: seen_b.append((n, op)))
        try:
            _tensor(1)
            assert seen_a == [(1024, "leaf")]
            assert seen_b == [(1024, "leaf")]
        finally:
            tensor_mod._allocation_hooks = ()

    def test_remove_is_equality_based_for_bound_methods(self):
        class Meter:
            def __init__(self):
                self.total = 0

            def on_alloc(self, nbytes, array, op):
                self.total += nbytes

        meter = Meter()
        # Each attribute access creates a fresh bound-method object;
        # removal must pair them up by equality, not identity.
        tensor_mod.add_allocation_hook(meter.on_alloc)
        tensor_mod.remove_allocation_hook(meter.on_alloc)
        _tensor(1)
        assert meter.total == 0
        assert tensor_mod._allocation_hooks == ()

    def test_duplicate_registration_is_single_subscription(self):
        seen = []

        def hook(n, arr, op):
            seen.append(n)

        tensor_mod.add_allocation_hook(hook)
        tensor_mod.add_allocation_hook(hook)
        try:
            _tensor(1)
            assert seen == [1024]
        finally:
            tensor_mod.remove_allocation_hook(hook)

    def test_op_names_flow_through(self):
        ops = []
        tensor_mod.add_allocation_hook(lambda n, arr, op: ops.append(op))
        try:
            t = _tensor(1)
            _ = t + t
        finally:
            tensor_mod._allocation_hooks = ()
        assert ops[0] == "leaf"
        assert "add" in ops

    def test_remove_then_add_replaces_subscription(self):
        first, second = [], []
        first_hook = tensor_mod.add_allocation_hook(
            lambda n, arr, op: first.append(n))
        tensor_mod.remove_allocation_hook(first_hook)
        second_hook = tensor_mod.add_allocation_hook(
            lambda n, arr, op: second.append(n))
        try:
            _tensor(2)
            assert first == []
            assert second == [2048]
        finally:
            tensor_mod.remove_allocation_hook(second_hook)
        _tensor(1)
        assert second == [2048]

    def test_device_step_and_ledger_both_metered_nested(self):
        """Satellite regression: a DeviceModel step inside a traced block
        must not displace the ledger's span attribution (the old
        single-slot hook did exactly that)."""
        telemetry.configure()
        device = DeviceModel()
        with telemetry.span("train"):
            with device.step():
                _tensor(4)
        ledger = telemetry.get_ledger()
        assert device.peak_bytes == 4096
        assert ledger.total_alloc_bytes == 4096
        assert ledger.alloc_by_op == {"leaf": 4096}
        events = telemetry.shutdown()
        (train,) = [e for e in events if e.get("name") == "train"]
        assert train["mem_bytes"] == 4096


# ---------------------------------------------------------------------------
# 2. the allocation ledger
# ---------------------------------------------------------------------------

class TestAllocationLedger:
    def test_alloc_and_free_roundtrip(self):
        ledger = AllocationLedger()
        arr = np.zeros(1024, dtype=np.uint8)
        ledger.on_alloc(arr.nbytes, arr, "leaf", "a/b")
        assert ledger.live_bytes == 1024
        assert ledger.live_by_path == {"a/b": 1024}
        del arr
        gc.collect()
        assert ledger.live_bytes == 0
        assert ledger.live_by_path == {}
        assert ledger.total_freed_bytes == 1024
        assert ledger.free_count == 1
        # Totals never decrease: they are the schedule-invariant side.
        assert ledger.total_alloc_bytes == 1024

    def test_peak_attribution_snapshot(self):
        ledger = AllocationLedger()
        big = np.zeros(4096, dtype=np.uint8)
        small = np.zeros(1024, dtype=np.uint8)
        ledger.on_alloc(small.nbytes, small, "leaf", "setup")
        ledger.on_alloc(big.nbytes, big, "matmul", "train/forward")
        assert ledger.peak_bytes == 5120
        assert ledger.peak_path == "train/forward"
        assert ledger.peak_op == "matmul"
        assert ledger.peak_by_path == {"setup": 1024, "train/forward": 4096}
        # Frees after the peak leave the snapshot untouched.
        del big
        gc.collect()
        assert ledger.peak_bytes == 5120
        assert ledger.peak_by_path == {"setup": 1024, "train/forward": 4096}

    def test_top_allocations_bounded_and_ranked(self, monkeypatch):
        monkeypatch.setattr(memory, "TOP_ALLOCATIONS", 3)
        ledger = AllocationLedger()
        for i, size in enumerate([10, 50, 20, 40, 30]):
            ledger.on_alloc(size, None, f"op{i}", TOP_PATH)
        sizes = [e["nbytes"] for e in ledger.top_allocations]
        assert sizes == [50, 40, 30]

    def test_close_ignores_late_finalizers(self):
        ledger = AllocationLedger()
        arr = np.zeros(64, dtype=np.uint8)
        ledger.on_alloc(arr.nbytes, arr, "leaf")
        ledger.close()
        del arr
        gc.collect()
        assert ledger.live_bytes == 64  # frozen at close
        assert ledger.free_count == 0

    def test_summary_shape(self):
        ledger = AllocationLedger()
        ledger.on_alloc(100, None, "leaf", "a")
        summary = ledger.summary()
        assert summary["schema"] == MEMORY_SCHEMA
        assert summary["peak_bytes"] == 100
        assert summary["peak_attribution"]["path"] == "a"
        assert summary["rss_peak_bytes"] > 0

    def test_merge_summary_adds_totals_and_maxes_peak(self):
        parent = AllocationLedger()
        parent.on_alloc(100, None, "leaf", "parent")
        shard = AllocationLedger()
        shard.on_alloc(300, None, "matmul", "cell/work")
        parent.merge_summary(shard.summary())
        assert parent.total_alloc_bytes == 400
        assert parent.alloc_count == 2
        assert parent.alloc_by_op == {"leaf": 100, "matmul": 300}
        # Shard's higher peak adopted wholesale, with its attribution.
        assert parent.peak_bytes == 300
        assert parent.peak_path == "cell/work"
        assert parent.peak_op == "matmul"
        # Residual worker live bytes die with the worker: not added.
        assert parent.live_bytes == 100

    def test_merge_summary_keeps_higher_parent_peak(self):
        parent = AllocationLedger()
        parent.on_alloc(500, None, "leaf", "parent")
        shard = AllocationLedger()
        shard.on_alloc(100, None, "matmul", "cell")
        parent.merge_summary(shard.summary())
        assert parent.peak_bytes == 500
        assert parent.peak_path == "parent"

    def test_merge_summary_ranks_shard_top_allocations(self):
        parent = AllocationLedger()
        parent.on_alloc(10, None, "leaf", "p")
        shard = AllocationLedger()
        shard.on_alloc(1000, None, "matmul", "c")
        parent.merge_summary(shard.summary())
        assert [e["nbytes"] for e in parent.top_allocations] == [1000, 10]


# ---------------------------------------------------------------------------
# 3. span attribution: inclusive/exclusive telescoping
# ---------------------------------------------------------------------------

class TestSpanMemoryAttribution:
    def test_mem_bytes_inclusive_and_exclusive(self):
        telemetry.configure()
        with telemetry.span("outer"):
            _tensor(1)
            with telemetry.span("inner"):
                _tensor(2)
        events = telemetry.shutdown()
        stats = aggregate_spans(events)
        assert stats["outer"]["mem_bytes"] == 3072
        assert stats["inner"]["mem_bytes"] == 2048
        assert stats["outer"]["self_mem_bytes"] == 1024
        assert stats["inner"]["self_mem_bytes"] == 2048

    def test_mem_peak_is_live_high_water_mark(self):
        telemetry.configure()
        with telemetry.span("stage"):
            _tensor(8)
        events = telemetry.shutdown()
        (stage,) = [e for e in events if e.get("name") == "stage"]
        assert stage["mem_peak_bytes"] >= 8 * 1024

    def test_ledger_paths_follow_span_tree(self):
        telemetry.configure()
        with telemetry.span("a"):
            with telemetry.span("b"):
                _tensor(1)
        ledger_summary = [e for e in telemetry.shutdown()
                          if e.get("type") == "memory"][-1]["memory"]
        assert "a/b" in ledger_summary["peak_attribution"]["live_by_path"]

    def test_top_level_allocations_use_sentinel_path(self):
        telemetry.configure()
        _tensor(1)
        summary = [e for e in telemetry.shutdown()
                   if e.get("type") == "memory"][-1]["memory"]
        assert TOP_PATH in summary["peak_attribution"]["live_by_path"]

    @given(script=st.lists(
        st.tuples(st.integers(0, 2), st.integers(1, 64)),
        min_size=1, max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_exclusive_mem_telescopes_to_root_inclusive(self, script):
        """For ANY nesting/allocation interleaving, the sum of exclusive
        per-span ledger bytes equals the sum of the root spans' inclusive
        bytes — allocation is attributed exactly once at every depth."""
        telemetry.shutdown()
        telemetry.configure()
        stack = []
        try:
            for action, arg in script:
                if action == 0 and len(stack) < 6:
                    span = telemetry.span(f"s{len(stack)}.{arg % 3}")
                    span.__enter__()
                    stack.append(span)
                elif action == 1 and stack:
                    stack.pop().__exit__(None, None, None)
                else:
                    _tensor(arg)
        finally:
            while stack:
                stack.pop().__exit__(None, None, None)
        events = telemetry.shutdown()
        stats = aggregate_spans(events)
        total_exclusive = sum(e["self_mem_bytes"] for e in stats.values())
        root_inclusive = sum(e["mem_bytes"] for e in events
                             if e.get("type") == "span"
                             and e.get("parent") is None)
        assert total_exclusive == root_inclusive


# ---------------------------------------------------------------------------
# worker-shard folding: pooled totals equal serial totals
# ---------------------------------------------------------------------------

def _run_alloc_cells(workers):
    telemetry.configure()
    try:
        cells = [Cell(key=("cell", i), fn=_alloc_cell,
                      kwargs={"kib": 4 * (i + 1)}) for i in range(3)]
        with telemetry.span("experiment"):
            execute_cells(cells, PoolConfig(workers=workers))
    finally:
        events = telemetry.shutdown()
    memory_events = [e for e in events if e.get("type") == "memory"]
    return memory_events


class TestLedgerShardFolding:
    def test_single_memory_event_per_run(self):
        memory_events = _run_alloc_cells(workers=1)
        assert len(memory_events) == 1  # shard summaries fold, not re-emit

    def test_pooled_alloc_totals_equal_serial(self):
        serial = _run_alloc_cells(workers=1)[-1]["memory"]
        pooled = _run_alloc_cells(workers=3)[-1]["memory"]
        assert pooled["total_alloc_bytes"] == serial["total_alloc_bytes"]
        assert pooled["alloc_count"] == serial["alloc_count"]
        assert pooled["alloc_by_op"] == serial["alloc_by_op"]
        # Each cell: one leaf + one add of 4(i+1) KiB float32.
        expected = sum(2 * 4 * (i + 1) * 1024 * 4 for i in range(3))
        assert serial["total_alloc_bytes"] == expected

    def test_shard_capture_restores_parent_ledger(self):
        telemetry.configure()
        parent_ledger = telemetry.get_ledger()
        _tensor(1)
        shard = {}
        with telemetry.shard_capture(shard):
            child_ledger = telemetry.get_ledger()
            assert child_ledger is not parent_ledger
            _tensor(2)
        assert telemetry.get_ledger() is parent_ledger
        # The child's summary rides the shard events…
        child_summary = [e for e in shard["events"]
                         if e.get("type") == "memory"][-1]["memory"]
        assert child_summary["total_alloc_bytes"] == 2048
        # …and fold_shard merges it into the parent's totals.
        telemetry.fold_shard(shard["events"], shard["metrics"], label="c")
        assert parent_ledger.total_alloc_bytes == 1024 + 2048
        telemetry.shutdown()


# ---------------------------------------------------------------------------
# 4a. memory_block: the registry's memory column
# ---------------------------------------------------------------------------

class TestMemoryBlock:
    def test_empty_without_ledger(self):
        assert memory_block([], {}) == {}

    def test_strips_samples_and_adds_coverage(self):
        ledger = AllocationLedger()
        ledger.on_alloc(2 ** 20, None, "leaf", "a")
        events = [{"type": "memory", "memory": ledger.summary()}]
        metrics = {"gauges": {"device.d.peak_bytes":
                              {"value": 2 ** 19, "max": 2 ** 19}}}
        block = memory_block(events, metrics)
        assert "samples" not in block
        assert block["device_peak_bytes"] == 2 ** 19
        assert block["coverage"]["device_vs_ledger"] == pytest.approx(0.5)
        ratio = block["coverage"]["ledger_vs_rss"]
        assert ratio is not None and 0 < ratio <= 1.0

    def test_blocked_subblock_absent_when_tier_never_ran(self):
        ledger = AllocationLedger()
        ledger.on_alloc(2 ** 20, None, "leaf", "a")
        events = [{"type": "memory", "memory": ledger.summary()}]
        block = memory_block(events, {"counters": {}, "gauges": {}})
        assert "blocked" not in block

    def test_blocked_subblock_carries_spill_traffic(self):
        ledger = AllocationLedger()
        ledger.on_alloc(2 ** 20, None, "leaf", "a")
        events = [{"type": "memory", "memory": ledger.summary()}]
        metrics = {
            "counters": {"blocked.spill_bytes": 4096,
                         "blocked.load_bytes": 2048,
                         "plan.terms.spill": 3, "plan.terms.spill_load": 2},
            "gauges": {},
        }
        block = memory_block(events, metrics)
        assert block["blocked"] == {
            "spill_bytes": 4096, "spill_terms": 3, "spill_loads": 2,
            "mmap_bytes": 2048}
        # Spill/mmap bytes sit next to the peak, never inside it.
        assert block["peak_bytes"] == 2 ** 20

    def test_registry_record_carries_memory_block(self, tmp_path):
        telemetry.configure()
        with telemetry.span("stage"):
            _tensor(16)
        events = telemetry.shutdown()
        record = telemetry.record_run(
            telemetry.build_manifest(extra={"experiment": "mem"}),
            events=events, registry_dir=tmp_path)
        assert record.schema.endswith("/v6")
        assert record.memory["peak_bytes"] >= 16 * 1024
        loaded = telemetry.RunRegistry(tmp_path).load()[0]
        assert loaded.memory["peak_bytes"] == record.memory["peak_bytes"]
        assert "coverage" in loaded.memory

    def test_v4_line_loads_with_empty_memory(self, tmp_path):
        """A registry written before the observatory still loads."""
        from repro.telemetry.registry import REGISTRY_FILENAME

        registry = telemetry.RunRegistry(tmp_path)
        record = telemetry.build_record(
            telemetry.build_manifest(extra={"experiment": "mem"}))
        v4 = record.to_dict()
        v4["schema"] = "repro.telemetry.registry/v4"
        del v4["memory"]
        with (tmp_path / REGISTRY_FILENAME).open("a") as handle:
            handle.write(json.dumps(v4) + "\n")
        (loaded,) = registry.load()
        assert registry.corrupt_lines == 0
        assert loaded.memory == {}

    def test_memory_outside_config_fingerprint(self, tmp_path):
        manifest = telemetry.build_manifest(extra={"experiment": "mem"})
        lean = telemetry.build_record(manifest)
        fat = telemetry.build_record(manifest, memory={"peak_bytes": 123})
        assert lean.config_fingerprint == fat.config_fingerprint


# ---------------------------------------------------------------------------
# 4c. rendering
# ---------------------------------------------------------------------------

class TestMemoryReporting:
    def test_render_memory_sections(self):
        telemetry.configure()
        device = DeviceModel(name="dev")
        with telemetry.span("train"):
            with device.step():
                _tensor(64)
        events = telemetry.shutdown()
        text = render_memory(events)
        assert "allocation ledger" in text
        assert "peak accounted" in text
        assert "largest allocations" in text
        assert "train" in text
        assert "ledger/rss coverage" in text
        assert "device peak" in text

    def test_render_memory_without_ledger(self):
        assert "no allocation ledger" in render_memory([])

    def test_trace_report_includes_memory_section(self):
        telemetry.configure()
        with telemetry.span("stage"):
            _tensor(1)
        events = telemetry.shutdown()
        assert "allocation ledger" in telemetry.render_trace_report(events)

    def test_trace_report_omits_memory_when_absent(self):
        events = [{"type": "span", "name": "s", "id": 1, "parent": None,
                   "duration_s": 1.0, "alloc_bytes": 0}]
        assert "allocation ledger" not in \
            telemetry.render_trace_report(events)


# ---------------------------------------------------------------------------
# rss helper
# ---------------------------------------------------------------------------

class TestRssHelpers:
    def test_current_and_peak_positive(self):
        current = current_rss_bytes()
        peak = peak_rss_bytes()
        assert current > 0
        assert peak > 0

    def test_peak_at_least_roughly_current(self):
        # ru_maxrss is a lifetime high-water mark; current RSS can only
        # exceed it transiently between kernel accounting updates.
        assert peak_rss_bytes() >= current_rss_bytes() * 0.5


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

class TestMemoryCli:
    def test_run_writes_memory_artifacts(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        trace = tmp_path / "run.jsonl"
        code = main(["efficiency", "--datasets", "cora", "--filters", "ppr",
                     "--schemes", "mini_batch", "--epochs", "2",
                     "--trace", str(trace),
                     "--registry-dir", str(tmp_path / "registry")])
        assert code == 0
        out = capsys.readouterr().out
        assert "allocation ledger" in out
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        (memory_event,) = [e for e in events if e.get("type") == "memory"]
        summary = memory_event["memory"]
        assert summary["schema"] == MEMORY_SCHEMA
        assert summary["peak_bytes"] > 0
        record = telemetry.RunRegistry(tmp_path / "registry").load()[-1]
        assert record.memory["peak_bytes"] == summary["peak_bytes"]
        assert record.memory["coverage"]["ledger_vs_rss"] is not None
