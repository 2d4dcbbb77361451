"""Device model, profiler, and hardware profiles."""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import Tensor
from repro.errors import DeviceOOMError
from repro.runtime import (
    GIBIBYTE,
    S1,
    S2,
    DeviceModel,
    HardwareProfile,
    StageProfiler,
    nbytes_of,
)


class TestNbytesOf:
    def test_int_passthrough(self):
        assert nbytes_of(1024) == 1024

    def test_ndarray(self):
        assert nbytes_of(np.zeros((10, 10), dtype=np.float32)) == 400

    def test_sparse(self):
        m = sp.random(20, 20, density=0.2, format="csr")
        assert nbytes_of(m) == m.data.nbytes + m.indices.nbytes + m.indptr.nbytes

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            nbytes_of("hello")


class TestDeviceModel:
    def test_persistent_accounting(self):
        device = DeviceModel()
        device.to_device(np.zeros(100, dtype=np.float32))
        assert device.persistent_bytes == 400
        assert device.peak_bytes == 400

    def test_free(self):
        device = DeviceModel()
        arr = np.zeros(10, dtype=np.float32)
        device.to_device(arr)
        device.free(arr)
        assert device.persistent_bytes == 0
        assert device.peak_bytes == 40  # peak remembers

    def test_step_meters_tensor_allocations(self):
        device = DeviceModel()
        with device.step():
            Tensor(np.zeros((5, 5), dtype=np.float32))
        assert device.peak_bytes == 100

    def test_transient_resets_between_steps(self):
        device = DeviceModel()
        for _ in range(3):
            with device.step():
                Tensor(np.zeros((5, 5), dtype=np.float32))
        assert device.peak_bytes == 100  # not 300: steps free activations

    def test_peak_is_persistent_plus_transient(self):
        device = DeviceModel()
        device.to_device(1000)
        with device.step():
            Tensor(np.zeros(25, dtype=np.float32))  # +100
        assert device.peak_bytes == 1100

    def test_oom_raised_at_capacity(self):
        device = DeviceModel(capacity_bytes=500)
        device.to_device(400)
        with pytest.raises(DeviceOOMError):
            device.to_device(200)

    def test_oom_during_step(self):
        device = DeviceModel(capacity_bytes=150)
        with pytest.raises(DeviceOOMError):
            with device.step():
                Tensor(np.zeros(100, dtype=np.float32))  # 400 B > 150

    def test_hook_removed_after_oom(self):
        device = DeviceModel(capacity_bytes=150)
        try:
            with device.step():
                Tensor(np.zeros(100, dtype=np.float32))
        except DeviceOOMError:
            pass
        # Allocation outside a step must not be metered any more.
        before = device.peak_bytes
        Tensor(np.zeros(100, dtype=np.float32))
        assert device.peak_bytes == before

    def test_oom_error_carries_numbers(self):
        device = DeviceModel(capacity_bytes=100)
        with pytest.raises(DeviceOOMError) as info:
            device.to_device(200)
        assert info.value.requested_bytes == 200
        assert info.value.capacity_bytes == 100

    def test_reset(self):
        device = DeviceModel()
        device.to_device(100)
        device.reset()
        assert device.peak_bytes == 0
        assert device.persistent_bytes == 0

    def test_peak_gib(self):
        device = DeviceModel()
        device.to_device(GIBIBYTE)
        assert device.peak_gib == pytest.approx(1.0)

    def test_nested_step_is_flat(self):
        device = DeviceModel()
        with device.step():
            with device.step():
                Tensor(np.zeros(25, dtype=np.float32))
        assert device.peak_bytes == 100


class TestDeviceModelEdgeCases:
    def test_free_unregistered_clamps_at_zero(self):
        """Freeing an object never registered must not drive residency
        negative (and so corrupt every later peak computation)."""
        device = DeviceModel()
        device.free(np.zeros(100, dtype=np.float32))
        assert device.persistent_bytes == 0
        device.to_device(400)
        device.free(1000)  # over-free: clamps, not -600
        assert device.persistent_bytes == 0
        with device.step():
            Tensor(np.zeros(200, dtype=np.float32))  # 800 B transient
        # A -600 B residency would hide this step under the old 400 B
        # peak; the clamp keeps transient accounting honest.
        assert device.peak_bytes == 800

    def test_step_reentry_outer_keeps_metering_after_inner_exit(self):
        """An inner (re-entrant) step is a flat no-op: its exit must not
        tear down the outer step's metering."""
        device = DeviceModel()
        with device.step():
            with device.step():
                pass
            Tensor(np.zeros(25, dtype=np.float32))  # after inner exit
        assert device.peak_bytes == 100

    def test_nbytes_of_coo_counts_converted_csr(self):
        """Sparse sizes are quoted in CSR terms regardless of input
        format — the format the compute path actually holds resident."""
        m = sp.random(50, 40, density=0.1, format="coo", random_state=7)
        csr = m.tocsr()
        expected = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert nbytes_of(m) == expected
        assert nbytes_of(m.tocsc()) == expected

    def test_oom_mid_step_removes_only_device_hook(self):
        """A simulated OOM unwinds the device's own subscription but must
        leave sibling subscribers (e.g. the allocation ledger) installed."""
        from repro.autodiff.tensor import (
            add_allocation_hook,
            remove_allocation_hook,
        )

        seen = []

        def sibling(nbytes, array, op):
            seen.append(nbytes)

        add_allocation_hook(sibling)
        try:
            device = DeviceModel(capacity_bytes=150)
            with pytest.raises(DeviceOOMError):
                with device.step():
                    Tensor(np.zeros(100, dtype=np.float32))
            before = device.peak_bytes
            Tensor(np.zeros(100, dtype=np.float32))
            assert device.peak_bytes == before  # device hook gone…
            assert seen == [400, 400]           # …sibling still subscribed
        finally:
            remove_allocation_hook(sibling)


class TestStageProfiler:
    def test_stage_timing_accumulates(self):
        profiler = StageProfiler()
        for _ in range(3):
            with profiler.stage("train"):
                time.sleep(0.001)
        stats = profiler.stages["train"]
        assert stats.calls == 3
        assert stats.seconds > 0
        assert stats.seconds_per_call == pytest.approx(stats.seconds / 3)

    def test_memory_records_peak(self):
        profiler = StageProfiler()
        profiler.record_ram("precompute", 100)
        profiler.record_ram("precompute", 50)
        assert profiler.stages["precompute"].ram_bytes == 100

    def test_summary_fields(self):
        profiler = StageProfiler()
        with profiler.stage("train", op_class="propagation"):
            pass
        summary = profiler.summary()
        assert summary["train"]["op_class"] == "propagation"
        assert summary["train"]["calls"] == 1

    def test_peaks_across_stages(self):
        profiler = StageProfiler()
        profiler.record_ram("a", 10)
        profiler.record_device("b", 30)
        assert profiler.peak_ram_bytes() == 10
        assert profiler.stages["b"].device_bytes == 30

    def test_missing_stage_seconds_zero(self):
        assert StageProfiler().seconds("nope") == 0.0

    def test_reset_clears_stages(self):
        profiler = StageProfiler()
        with profiler.stage("train"):
            pass
        profiler.record_ram("train", 100)
        profiler.reset()
        assert profiler.stages == {}
        assert profiler.peak_ram_bytes() == 0
        assert profiler.seconds("train") == 0.0

    def test_zero_call_stage_seconds_per_call(self):
        # record_ram creates the stage with zero calls; summary must not
        # divide by zero or report NaN.
        profiler = StageProfiler()
        profiler.record_ram("inference", 10)
        stats = profiler.stages["inference"]
        assert stats.calls == 0
        assert stats.seconds_per_call == 0.0
        summary = profiler.summary()
        assert summary["inference"]["seconds_per_call"] == 0.0


class TestHardwareProfiles:
    def test_s2_speeds(self):
        assert S2.propagation_speed < 1.0  # slower CPU
        assert S2.transform_speed > 1.0    # faster GPU

    def test_scaling_direction(self):
        profiler = StageProfiler()
        with profiler.stage("precompute", op_class="propagation"):
            time.sleep(0.002)
        with profiler.stage("train", op_class="transform"):
            time.sleep(0.002)
        summary = profiler.summary()
        s1 = S1.scale_stage_seconds(summary)
        s2 = S2.scale_stage_seconds(summary)
        assert s2["precompute"] > s1["precompute"]  # propagation slower on S2
        assert s2["train"] < s1["train"]            # transform faster on S2

    def test_custom_profile(self):
        profile = HardwareProfile("X", propagation_speed=2.0, transform_speed=0.5)
        scaled = profile.scale_stage_seconds(
            {"p": {"seconds": 1.0, "op_class": "propagation"},
             "t": {"seconds": 1.0, "op_class": "transform"}})
        assert scaled["p"] == 0.5
        assert scaled["t"] == 2.0
