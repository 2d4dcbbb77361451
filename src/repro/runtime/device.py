"""Simulated accelerator memory: byte-exact accounting without a GPU.

The paper's scalability results hinge on *where bytes live*: full-batch
training keeps the graph and all n-row representations in GPU memory and
OOMs on million-scale graphs, while mini-batch training keeps only batch
rows and weights on the device. We reproduce that with an accounting model:

- **Persistent** allocations are tensors explicitly moved to the device
  (parameters, and under full-batch the graph + feature matrices).
- **Transient** allocations are every array the autodiff engine
  materializes inside one training/inference step. The meter counts
  allocations, not live bytes: an array the engine frees mid-step (an
  activation no backward reads, a node backward has released) still
  counts, so the figure does not depend on when arrays die.

Peak device usage is ``persistent + max(transient within any step)``; a
configurable capacity raises :class:`~repro.errors.DeviceOOMError` exactly
where a real 24 GB card would, so benchmark tables can report ``(OOM)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..autodiff.tensor import add_allocation_hook, remove_allocation_hook
from ..errors import DeviceOOMError

GIBIBYTE = 1024 ** 3


def nbytes_of(obj: Union[int, np.ndarray, sp.spmatrix]) -> int:
    """Byte size of an int, numpy array, or scipy sparse matrix."""
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if sp.issparse(obj):
        csr = obj.tocsr()
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    raise TypeError(f"cannot size object of type {type(obj).__name__}")


class DeviceModel:
    """Accounting model of an accelerator with bounded memory.

    Parameters
    ----------
    capacity_bytes:
        Device capacity; ``None`` means unbounded (profiling only).
    name:
        Label used in reports (e.g. ``"A30-24GB"``).
    """

    def __init__(self, capacity_bytes: Optional[int] = None, name: str = "device"):
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.persistent_bytes = 0
        self.peak_bytes = 0
        self._transient_bytes = 0
        self._in_step = False

    # ------------------------------------------------------------------
    # persistent residency
    # ------------------------------------------------------------------
    def to_device(self, obj: Union[int, np.ndarray, sp.spmatrix]) -> int:
        """Register a persistent allocation; returns its byte size."""
        size = nbytes_of(obj)
        self._check(size)
        self.persistent_bytes += size
        if self.persistent_bytes > self.peak_bytes:
            self.peak_bytes = self.persistent_bytes
            telemetry.set_gauge(f"device.{self.name}.peak_bytes", self.peak_bytes)
        return size

    def free(self, obj: Union[int, np.ndarray, sp.spmatrix]) -> None:
        """Release a persistent allocation registered via :meth:`to_device`."""
        self.persistent_bytes = max(0, self.persistent_bytes - nbytes_of(obj))

    @contextmanager
    def resident(self, *objs: Union[int, np.ndarray, sp.spmatrix]) -> Iterator[None]:
        """Hold ``objs`` on the device for the duration of the block.

        The graph-partition scheme moves one cluster (operator + features)
        onto the device per step and releases it afterwards, so GP OOMs
        exactly when the *largest cluster* exceeds capacity — the paper's
        semantics for partition-based training. If a later ``to_device``
        raises mid-admission, only the sizes already admitted are freed.
        """
        admitted = []
        try:
            for obj in objs:
                admitted.append(self.to_device(obj))
            yield
        finally:
            for size in admitted:
                self.free(size)

    # ------------------------------------------------------------------
    # per-step transient accounting
    # ------------------------------------------------------------------
    @contextmanager
    def step(self) -> Iterator[None]:
        """Meter every autodiff allocation inside the block as activations.

        Steps do not nest; the device's own allocation hook is removed on
        exit even when the step raises (including on simulated OOM). The
        hook is *subscribed* (:func:`~repro.autodiff.tensor.
        add_allocation_hook`), not installed into a single slot, so a step
        composes with the telemetry allocation ledger instead of silently
        displacing its span attribution.
        """
        if self._in_step:
            yield
            return
        self._in_step = True
        self._transient_bytes = 0
        add_allocation_hook(self._on_alloc)
        try:
            yield
        finally:
            remove_allocation_hook(self._on_alloc)
            self._in_step = False
            self._transient_bytes = 0

    def _on_alloc(self, nbytes: int, array: Optional[np.ndarray],
                  op: str) -> None:
        self._check(nbytes)
        self._transient_bytes += nbytes
        total = self.persistent_bytes + self._transient_bytes
        if total > self.peak_bytes:
            self.peak_bytes = total
            # Only on a new peak (not per-alloc) to keep the hot path cheap.
            telemetry.set_gauge(f"device.{self.name}.peak_bytes", total)

    def _check(self, nbytes: int) -> None:
        if self.capacity_bytes is None:
            return
        used = self.persistent_bytes + self._transient_bytes
        if used + nbytes > self.capacity_bytes:
            telemetry.emit_event("device.oom", device=self.name,
                                 requested_bytes=int(nbytes), used_bytes=int(used),
                                 capacity_bytes=int(self.capacity_bytes))
            raise DeviceOOMError(nbytes, used, self.capacity_bytes)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        cap = "∞" if self.capacity_bytes is None else f"{self.capacity_bytes / GIBIBYTE:.0f}GiB"
        peak = self.peak_bytes / GIBIBYTE
        return f"DeviceModel(name={self.name!r}, capacity={cap}, peak={peak:.3f}GiB)"
