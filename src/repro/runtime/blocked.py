"""repro.runtime.blocked — threaded CSR products, and the planner's spill.

The paper's efficiency/memory tables (Tables 5–6) are about where bytes
live at full size. This module holds the two pieces of propagation that
decide it beyond the autodiff engine:

- **Threaded CSR spmm** — :func:`blocked_spmm` evaluates ``P @ X`` over
  row tiles that are views of the operator's arrays (a tile's ``indptr``
  keeps its absolute offsets into ``indices`` and ``data``, so nothing
  is copied, and cutting them costs microseconds against a product's
  milliseconds: they are cut per call). A product on T threads is cut
  into
  :data:`TILES_PER_THREAD` × T tiles of equal nnz, which the calling
  thread and T − 1 helpers of a process-wide pool claim as they become
  free; every tile writes its rows of one preallocated output with
  scipy's own CSR kernel, which releases the GIL. CSR matmul
  computes each output row independently from that row's nonzeros, so
  row tiling executes the *same floating-point operations in the same
  order* as the one-shot product: the tiled result is bit-identical to
  it. The output is the full ``n × F`` array either way, so tiling
  bounds no memory; it only spreads the work.
- **Thread budget** — T is the run context's ``spmm_threads``
  (:mod:`repro.runtime.context`): every CPU of the process's affinity
  mask inline, an equal share in a pool worker. Every product runs on
  threads when its work ``nnz × F`` reaches :data:`THREADED_MIN_WORK`:
  a training step's (full batch, forward and backward, and GP) and a
  gradient-free precompute's (the mini-batch channels, the planner's
  chains, NAGphormer's tokens) alike. A smaller one stays one
  ``csr @ dense`` call. The caller allocates the output; a helper only
  writes rows of it. No helper thread is alive across a ``fork``: the
  pool is shut down before one and forgotten in the child.
- **Spill directory** — :class:`BlockedTier` (the bench CLI's
  ``--blocked``) bounds the basis planner's resident terms
  (:mod:`repro.runtime.plan`) to :data:`TERM_BUDGET_FRACTION` of a RAM
  budget: ``--ram-budget``, or by default the process's current RSS
  (:func:`default_ram_budget` via :mod:`repro.telemetry.rss`). Chains
  the planner's LRU evicts go *into* :attr:`BlockedTier.spill`, a plain
  :class:`repro.runtime.files.ArrayFiles` under the shared store's file
  names (:func:`repro.runtime.shm.term_name`), instead of being
  dropped, so a later filter re-requesting a spilled chain maps the
  identical bytes back read-only rather than recomputing them.

:func:`spmm_csr` is the single integration hook — the autodiff spmm
paths (:mod:`repro.autodiff.sparse`) route every CSR product through it,
the ``coo_gather`` segment-sum included. The tier acts only while it is
the run context's ``tier`` (:mod:`repro.runtime.context`); a product
never consults it.

Counters emitted (when telemetry is configured):

- ``blocked.spill_bytes`` — bytes the spill directory took (the terms
  themselves are counted once, as the planner's ``plan.terms.spill`` /
  ``plan.terms.spill_load``).
- ``blocked.spill_failed`` — terms dropped (recomputed on the next
  request) because the spill directory refused the write.
- ``blocked.load_bytes`` — bytes mapped back from disk, summed over
  every load (a term loaded twice counts twice).

The run record's ``memory`` block folds these into a
``blocked`` sub-block so ``memory.peak_bytes`` attribution stays
truthful: bytes living in spill files or memory-mapped read-only are
reported next to — never inside — the allocation ledger's RAM peak.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import telemetry
from ..telemetry.rss import current_rss_bytes
from . import context
from .files import ArrayFiles

#: Floor for a derived RAM budget: even on a tiny container the planner
#: should keep more than a term or two resident.
MIN_RAM_BUDGET_BYTES = 64 * 2 ** 20

#: Fraction of the RAM budget the planner's resident term store may
#: occupy before chains spill to disk.
TERM_BUDGET_FRACTION = 0.5

#: Least work ``nnz × F`` (multiply-adds) of a product that runs on
#: threads. Below it, handing rows to another core costs more than the
#: split saves: the next op reads rows the other core wrote. Measured as
#: full-batch ``ppr`` train seconds per epoch, every product on one
#: thread vs two equal-nnz halves on two threads (2-vCPU Xeon VM, one
#: BLAS thread, 6-8 alternations, 19 graphs from 11 registry datasets
#: of average degree 2.3-88; table in CHANGES.md): T = 2 lost on all 7
#: graphs whose median product is 1.1-3.9 M (0.47-0.90×; two read
#: 1.03-1.06× in a repeat) and won on 10 of the 12 at 4.2-20 M
#: (1.03-1.39×), at any degree (genius, degree 2.3: 1.19×). Precompute
#: products run the same kernel on the same operators and share the
#: minimum.
THREADED_MIN_WORK = 2 ** 22

#: Row tiles of equal nnz per thread of a threaded product. The threads
#: claim tiles as they become free, so a thread the OS schedules late
#: (or never, on a busy host) leaves its share to the others instead of
#: holding up the product.
TILES_PER_THREAD = 4

#: One row tile: ``(first row, end row, indptr, indices, data)``, the
#: last three views of the operator's CSR arrays: the tile's rows of
#: ``indptr``, whose offsets index the whole ``indices`` and ``data``.
Tile = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def default_ram_budget() -> int:
    """RAM budget when ``--ram-budget`` is not given: the process's
    current RSS (headroom comparable to what the run already uses),
    floored at :data:`MIN_RAM_BUDGET_BYTES`."""
    return max(MIN_RAM_BUDGET_BYTES, int(current_rss_bytes()))


class _Helpers:
    """The process's spmm helper threads, created on first use and grown
    on demand; a ``fork`` never inherits one (see the hooks below)."""

    def __init__(self):
        self.forget()

    def forget(self) -> None:
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._size = 0

    def executor(self, size: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._size < size:
                if self._executor is not None:
                    self._executor.shutdown()
                self._executor = ThreadPoolExecutor(
                    size, thread_name_prefix="repro-spmm")
                self._size = size
            return self._executor

    def shutdown(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown()
            self._executor, self._size = None, 0


_helpers = _Helpers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_helpers.shutdown,
                        after_in_child=_helpers.forget)


def row_tiles(csr: sp.csr_matrix, parts: int) -> Tuple[Tile, ...]:
    """``csr``'s rows cut into up to ``parts`` tiles of about equal nnz."""
    indptr, num_rows = csr.indptr, csr.shape[0]
    targets = np.arange(1, parts) * (int(indptr[-1]) / parts)
    cuts = np.minimum(np.searchsorted(indptr, targets), num_rows)
    bounds = np.unique(np.concatenate(([0], cuts, [num_rows])))
    return tuple(_tile(csr, first, end) for first, end
                 in zip(bounds[:-1].tolist(), bounds[1:].tolist()))


def _tile(csr: sp.csr_matrix, start: int, end: int) -> Tile:
    return start, end, csr.indptr[start:end + 1], csr.indices, csr.data


def _parts(threads: int) -> int:
    return 1 if threads == 1 else threads * TILES_PER_THREAD


def blocked_spmm(csr: sp.csr_matrix, dense: np.ndarray,
                 threads: int = 1) -> np.ndarray:
    """``csr @ dense`` over equal-nnz row tiles on ``threads`` threads,
    bit-identical to the one-shot product (each output row's
    accumulation order is unchanged by row slicing)."""
    return _spmm_tiles(csr, np.asarray(dense),
                       row_tiles(csr, _parts(threads)), threads)


def _spmm_tiles(csr: sp.csr_matrix, dense: np.ndarray,
                tiles: Tuple[Tile, ...], threads: int) -> np.ndarray:
    """Run ``tiles`` of ``csr @ dense`` on the calling thread and
    ``threads - 1`` helpers, each claiming the next tile when free; every
    tile goes through the kernel scipy's own ``@`` calls for this operand
    shape (a single column goes through ``csr_matvec``) and writes its
    rows of one preallocated output."""
    shape = (csr.shape[0],) + dense.shape[1:]
    result = np.zeros(shape, dtype=np.result_type(csr.dtype, dense.dtype))
    rows = result.reshape(csr.shape[0], math.prod(shape[1:]))
    vectors = dense.ndim == 2 and dense.shape[1] != 1
    signal = dense.ravel()
    # A list iterator hands each tile out once, even across threads.
    claims = iter(tiles)
    left = len(tiles)
    errors: List[BaseException] = []
    lock, done = threading.Lock(), threading.Event()

    def work() -> None:
        nonlocal left
        for start, end, indptr, indices, data in claims:
            block = rows[start:end]
            try:
                if vectors:
                    _sparsetools.csr_matvecs(end - start, csr.shape[1],
                                             block.shape[1], indptr, indices,
                                             data, signal, block.ravel())
                else:
                    _sparsetools.csr_matvec(end - start, csr.shape[1],
                                            indptr, indices, data, signal,
                                            block.ravel())
            except BaseException as exc:  # re-raised on the caller
                errors.append(exc)
            with lock:
                left -= 1
                if not left:
                    done.set()

    if threads > 1 and len(tiles) > 1:
        pool = _helpers.executor(threads - 1)
        for _ in range(min(threads, len(tiles)) - 1):
            pool.submit(work)
    work()
    # Only tiles a helper claimed are waited for; one the OS has not
    # scheduled yet finds nothing left when it runs.
    if tiles:
        done.wait()
    if errors:
        raise errors[0]
    return result


class BlockedTier:
    """One run's spill directory and the term budget that fills it.

    Parameters
    ----------
    ram_budget_bytes:
        Byte budget (``--ram-budget``); the planner keeps
        :data:`TERM_BUDGET_FRACTION` of it in resident terms. ``None``
        derives it from the current RSS (:func:`default_ram_budget`).
    spill_dir:
        Spill directory; ``None`` creates a private temp directory
        removed by :meth:`close`.
    """

    def __init__(self, ram_budget_bytes: Optional[int] = None,
                 spill_dir: Optional[os.PathLike] = None):
        self.ram_budget_bytes = int(ram_budget_bytes or default_ram_budget())
        if self.ram_budget_bytes < 1:
            raise ValueError("ram budget must be positive, got "
                             f"{self.ram_budget_bytes}")
        self._owns_dir = spill_dir is None
        root = spill_dir if spill_dir is not None \
            else tempfile.mkdtemp(prefix="repro-spill-")
        os.makedirs(root, exist_ok=True)
        self.spill = ArrayFiles(root)
        #: Resident-term budget the planner enforces before spilling.
        self.term_budget_bytes = max(
            1, int(self.ram_budget_bytes * TERM_BUDGET_FRACTION))
        self.closed = False

    def spill_term(self, name: str, term: np.ndarray) -> int:
        """Write one evicted term; its bytes, 0 when already spilled."""
        nbytes = self.spill.put(name, term)
        if nbytes:
            telemetry.inc_counter("blocked.spill_bytes", nbytes)
        return nbytes

    def load_terms(self, names: Iterable[str]) -> List[np.ndarray]:
        """Map back the longest present prefix of ``names``, read-only."""
        loaded = self.spill.leading(names)
        if loaded:
            telemetry.inc_counter("blocked.load_bytes",
                                  sum(int(term.nbytes) for term in loaded))
        return loaded

    def close(self) -> None:
        """Purge the spilled terms; remove the directory when tier-owned."""
        if self.closed:
            return
        self.closed = True
        # The files of shm.term_name's names: the only ones the tier writes.
        self.spill.purge(r"c-[0-9a-f]+\.[0-9]+\.npy")
        if self._owns_dir:
            shutil.rmtree(self.spill.root, ignore_errors=True)


def spmm_csr(csr: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """The autodiff integration hook: ``csr @ dense``. A product whose
    work reaches :data:`THREADED_MIN_WORK` runs on the run context's
    ``spmm_threads``; any other is the plain one-shot product.
    Bit-identical either way."""
    dense = np.asarray(dense)
    width = dense.shape[1] if dense.ndim > 1 else 1
    threads = context.current().spmm_threads \
        if csr.nnz * width >= THREADED_MIN_WORK else 1
    if threads == 1:
        return np.asarray(csr @ dense)
    return blocked_spmm(csr, dense, threads)


__all__ = [
    "BlockedTier",
    "THREADED_MIN_WORK",
    "TILES_PER_THREAD",
    "blocked_spmm",
    "default_ram_budget",
    "row_tiles",
    "spmm_csr",
]
