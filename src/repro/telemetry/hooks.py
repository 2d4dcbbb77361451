"""Bridging telemetry into the autodiff engine's hook slots.

:mod:`repro.autodiff.tensor` exposes two hook surfaces:

- ``set_op_hook`` — a single process-wide callback receiving
  ``(op, flops, nbytes)`` for every dense matmul, sparse propagation, and
  elementwise op the engine executes. Installing telemetry routes those
  into FLOP/byte/call counters on the active registry and attributes the
  bytes to every open span, which is how traces show *where* the
  arithmetic happened.
- ``add_allocation_hook`` / ``remove_allocation_hook`` — multi-subscriber
  dispatch of ``(nbytes, array, op)`` for every array the engine
  materializes. Telemetry subscribes the allocation ledger
  (:class:`repro.telemetry.memory.AllocationLedger`) here, tagging each
  allocation with the current span-tree path and feeding the per-span
  ``mem_bytes`` / ``mem_peak_bytes`` columns — composing with (never
  displacing) the :class:`repro.runtime.device.DeviceModel` step hook on
  the same dispatch.
"""

from __future__ import annotations

from .memory import TOP_PATH, AllocationLedger
from .spans import Tracer


def install_op_hooks(tracer: Tracer) -> None:
    """Point the engine's op hook at ``tracer``'s metrics registry."""
    from ..autodiff import tensor as tensor_mod

    metrics = tracer.metrics

    def op_hook(op: str, flops: int, nbytes: int) -> None:
        metrics.counter(f"ops.{op}.calls").inc()
        metrics.counter(f"ops.{op}.flops").inc(flops)
        metrics.counter(f"ops.{op}.bytes").inc(nbytes)
        tracer.add_alloc_bytes(nbytes)

    tensor_mod.set_op_hook(op_hook)


def uninstall_op_hooks() -> None:
    """Detach telemetry from the engine (no-op when nothing installed)."""
    from ..autodiff import tensor as tensor_mod

    tensor_mod.set_op_hook(None)


#: The allocation hook telemetry currently has subscribed, so uninstall
#: removes exactly what install added (and nothing anyone else added).
_alloc_hook = None


def install_alloc_hooks(tracer: Tracer, ledger: AllocationLedger) -> None:
    """Subscribe ``ledger`` to the engine's allocation dispatch.

    Every engine allocation is accounted under the current span-tree path
    (:meth:`Tracer.current_path`) and attributed inclusively to the open
    spans (:meth:`Tracer.add_mem_bytes`). Replaces any hook a previous
    install left behind; other subscribers (e.g. a ``DeviceModel.step``)
    are untouched.
    """
    global _alloc_hook
    from ..autodiff import tensor as tensor_mod

    if _alloc_hook is not None:
        tensor_mod.remove_allocation_hook(_alloc_hook)

    def alloc_hook(nbytes: int, array, op: str) -> None:
        path = tracer.current_path() or TOP_PATH
        ledger.on_alloc(nbytes, array, op, path)
        tracer.add_mem_bytes(nbytes, ledger.live_bytes)

    _alloc_hook = alloc_hook
    tensor_mod.add_allocation_hook(alloc_hook)


def uninstall_alloc_hooks() -> None:
    """Unsubscribe telemetry's allocation hook (no-op when absent)."""
    global _alloc_hook
    from ..autodiff import tensor as tensor_mod

    if _alloc_hook is not None:
        tensor_mod.remove_allocation_hook(_alloc_hook)
        _alloc_hook = None
