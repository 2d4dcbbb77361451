"""repro.runtime.blocked — row-tiled CSR products: threaded, and out of core.

The paper's efficiency/memory tables (Tables 5–6) are defined on
full-size graphs, but every propagation path in this repo materializes
dense ``n × d`` term matrices in RAM — nothing downstream of the
synthesizer survived ``scale=1.0`` before this module. The blocked tier
makes those rows *measurable* instead of extrapolated, and the same row
tiles let one large product use every CPU the process owns (the paper
times propagation on parallel hardware):

- **Tiled CSR spmm** — :func:`blocked_spmm` evaluates ``P @ X`` over
  row tiles that view the operator's ``indices`` and ``data`` (only a
  shifted ``indptr`` is copied; :func:`repro.runtime.cache.
  operator_tiles` keeps them per operator). A product on T threads is
  cut into :data:`TILES_PER_THREAD` × T tiles of equal nnz, which the
  calling thread and T − 1 helpers of a process-wide pool claim as they
  become free; every tile writes its rows of one preallocated output
  with scipy's own CSR kernel, which releases the GIL. CSR matmul
  computes each output row independently from that row's nonzeros, so
  row tiling executes the *same floating-point operations in the same
  order* as the one-shot product: the tiled result is bit-identical to
  the in-core path (the same contract the planner and every cache in
  this repo already hold, and what the ``bench-blocked`` CI gate
  asserts end to end).
- **Thread budget** — T is the run context's ``spmm_threads``
  (:mod:`repro.runtime.context`): every CPU of the process's affinity
  mask inline, an equal share in a pool worker. Only a product of a
  training step (full batch, forward and backward, and GP) runs on
  threads, and only when its work ``nnz × F`` reaches
  :data:`THREADED_MIN_WORK`; a smaller one, and every gradient-free
  precompute product, stays one ``csr @ dense`` call. No helper thread
  is alive across a ``fork``: the pool is shut down before one and
  forgotten in the child.
- **Spill directory** — :attr:`BlockedTier.spill`, a plain
  :class:`repro.runtime.files.ArrayFiles`, holds whole ``T^(k)(L̃)·X``
  term matrices under the shared store's file names
  (:func:`repro.runtime.shm.term_name`). The basis planner's LRU
  (:mod:`repro.runtime.plan`) evicts chains *into* it instead of
  dropping them, so a later filter re-requesting a spilled chain maps
  the identical bytes back read-only rather than recomputing them.
- **RAM-budget auto-tuning** — block size derives from a byte budget
  (:func:`choose_block_rows`); the budget comes from ``--ram-budget``
  or, by default, from the process's current RSS
  (:func:`default_ram_budget` via :mod:`repro.telemetry.rss`).

Lifetime: the tier acts only while it is the run context's ``tier``
(:mod:`repro.runtime.context`; the bench CLI's ``--blocked`` builds one
for the run); its RAM budget caps the tile height, divided by T since T
tiles are in flight at once. :func:`spmm_csr` is the single integration
hook — the autodiff spmm paths (:mod:`repro.autodiff.sparse`) route
every CSR product through it, the ``coo_gather`` segment-sum included,
so full-batch training, mini-batch precompute, and per-cluster GP
propagation all tile transparently, and the training-step products
also run on threads.

Counters emitted (when telemetry is configured):

- ``blocked.spmm_calls`` / ``blocked.tiles`` — tiled products and the
  row tiles they split into.
- ``blocked.spill_bytes`` — bytes the spill directory took (the terms
  themselves are counted once, as the planner's ``plan.terms.spill`` /
  ``plan.terms.spill_load``).
- ``blocked.spill_failed`` — terms dropped (recomputed on the next
  request) because the spill directory refused the write.
- ``blocked.mmap_peak_bytes`` (gauge) — bytes mapped back from disk.

The registry ``memory`` block (schema v6) folds these into a
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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .. import telemetry
from ..telemetry.rss import current_rss_bytes
from . import cache, context
from .files import ArrayFiles

#: Floor for a derived RAM budget: even on a tiny container the tier
#: should not degenerate into single-row tiles.
MIN_RAM_BUDGET_BYTES = 64 * 2 ** 20

#: Fraction of the RAM budget one spmm tile (output rows) may occupy.
TILE_BUDGET_FRACTION = 0.25

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
#: (1.03-1.39×), at any degree (genius, degree 2.3: 1.19×).
THREADED_MIN_WORK = 2 ** 22

#: Row tiles of equal nnz per thread of a threaded product. The threads
#: claim tiles as they become free, so a thread the OS schedules late
#: (or never, on a busy host) leaves its share to the others instead of
#: holding up the product.
TILES_PER_THREAD = 4

#: One row tile: ``(first row, end row, indptr, indices, data)``, the
#: last three the tile's CSR arrays (``indptr`` shifted to start at 0).
Tile = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def default_ram_budget() -> int:
    """RAM budget when ``--ram-budget`` is not given: the process's
    current RSS (headroom comparable to what the run already uses),
    floored at :data:`MIN_RAM_BUDGET_BYTES`."""
    return max(MIN_RAM_BUDGET_BYTES, int(current_rss_bytes()))


def choose_block_rows(num_rows: int, row_nbytes: int,
                      budget_bytes: int,
                      fraction: float = TILE_BUDGET_FRACTION) -> int:
    """Rows per tile such that one tile's output fits ``fraction`` of the
    budget; always at least 1 and never more than ``num_rows``."""
    if num_rows <= 0:
        return 1
    tile_bytes = max(1, int(budget_bytes * fraction))
    rows = tile_bytes // max(1, int(row_nbytes))
    return int(min(max(rows, 1), num_rows))


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


def row_tiles(csr: sp.csr_matrix, parts: int,
              block_rows: Optional[int] = None) -> Tuple[Tile, ...]:
    """``csr``'s rows cut into up to ``parts`` runs of about equal nnz,
    each cut again into tiles at most ``block_rows`` high; cached per
    operator."""
    return cache.operator_tiles(csr, (parts, block_rows),
                                lambda: _cut_tiles(csr, parts, block_rows))


def _cut_tiles(csr: sp.csr_matrix, parts: int,
               block_rows: Optional[int]) -> Tuple[Tile, ...]:
    indptr, num_rows = csr.indptr, csr.shape[0]
    targets = np.arange(1, parts) * (int(indptr[-1]) / parts)
    cuts = np.minimum(np.searchsorted(indptr, targets), num_rows)
    bounds = np.unique(np.concatenate(([0], cuts, [num_rows])))
    tiles = []
    for first, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        height = block_rows or end - first
        tiles.extend(_tile(csr, start, min(start + height, end))
                     for start in range(first, end, height))
    return tuple(tiles)


def _tile(csr: sp.csr_matrix, start: int, end: int) -> Tile:
    lo, hi = csr.indptr[start], csr.indptr[end]
    return (start, end, csr.indptr[start:end + 1] - lo,
            csr.indices[lo:hi], csr.data[lo:hi])


def _parts(threads: int) -> int:
    return 1 if threads == 1 else threads * TILES_PER_THREAD


def blocked_spmm(csr: sp.csr_matrix, dense: np.ndarray,
                 block_rows: Optional[int] = None,
                 out: Optional[np.ndarray] = None,
                 threads: int = 1) -> np.ndarray:
    """``csr @ dense`` over row tiles at most ``block_rows`` high, on
    ``threads`` threads, bit-identical to the one-shot product (each
    output row's accumulation order is unchanged by row slicing). ``out``
    may be any preallocated array of the result shape (including a
    ``numpy.memmap``)."""
    tiles = row_tiles(csr, _parts(threads), block_rows)
    result = _spmm_tiles(csr, np.asarray(dense), tiles, threads)
    if out is None:
        return result
    out[...] = result
    return out


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
    """One run's blocked-execution configuration: budget, spill, tiling.

    Parameters
    ----------
    ram_budget_bytes:
        Byte budget the tier tunes against (``--ram-budget``); ``None``
        derives it from the current RSS (:func:`default_ram_budget`).
    spill_dir:
        Spill directory; ``None`` creates a private temp directory
        removed by :meth:`close`.
    block_rows:
        Fixed tile height override; ``None`` auto-tunes per product via
        :func:`choose_block_rows`.
    """

    def __init__(self, ram_budget_bytes: Optional[int] = None,
                 spill_dir: Optional[os.PathLike] = None,
                 block_rows: Optional[int] = None):
        self.ram_budget_bytes = int(ram_budget_bytes or default_ram_budget())
        if self.ram_budget_bytes < 1:
            raise ValueError("ram budget must be positive, got "
                             f"{self.ram_budget_bytes}")
        self._owns_dir = spill_dir is None
        root = spill_dir if spill_dir is not None \
            else tempfile.mkdtemp(prefix="repro-spill-")
        os.makedirs(root, exist_ok=True)
        self.spill = ArrayFiles(root)
        self._block_rows = None if block_rows is None else int(block_rows)
        #: Resident-term budget the planner enforces before spilling.
        self.term_budget_bytes = max(
            1, int(self.ram_budget_bytes * TERM_BUDGET_FRACTION))
        self.spmm_calls = 0
        self.tiles = 0
        self._spill_lock = threading.Lock()
        self.spill_files = 0
        self.spill_bytes = 0
        self.load_files = 0
        self.mapped_bytes = 0
        self.closed = False

    def block_rows_for(self, num_rows: int, row_nbytes: int) -> int:
        if self._block_rows is not None:
            return max(1, min(self._block_rows, max(num_rows, 1)))
        return choose_block_rows(num_rows, row_nbytes,
                                 self.ram_budget_bytes)

    def spmm(self, csr: sp.csr_matrix, dense: np.ndarray,
             threads: int = 1) -> np.ndarray:
        """Tiled ``csr @ dense`` under this tier's budget, on ``threads``
        threads (their tiles in flight at once share the budget)."""
        dense = np.asarray(dense)
        width = dense.shape[1] if dense.ndim > 1 else 1
        row_nbytes = width * np.result_type(csr.dtype, dense.dtype).itemsize
        block_rows = max(1, self.block_rows_for(csr.shape[0], row_nbytes)
                         // threads)
        tiles = row_tiles(csr, _parts(threads), block_rows)
        self.spmm_calls += 1
        self.tiles += len(tiles)
        telemetry.inc_counter("blocked.spmm_calls")
        telemetry.inc_counter("blocked.tiles", len(tiles))
        return _spmm_tiles(csr, dense, tiles, threads)

    def spill_term(self, name: str, term: np.ndarray) -> int:
        """Write one evicted term; its bytes, 0 when already spilled."""
        nbytes = self.spill.put(name, term)
        if nbytes:
            with self._spill_lock:
                self.spill_files += 1
                self.spill_bytes += nbytes
            telemetry.inc_counter("blocked.spill_bytes", nbytes)
        return nbytes

    def load_terms(self, names: Iterable[str]) -> List[np.ndarray]:
        """Map back the longest present prefix of ``names``, read-only."""
        loaded = self.spill.leading(names)
        if loaded:
            with self._spill_lock:
                self.load_files += len(loaded)
                self.mapped_bytes += sum(int(term.nbytes) for term in loaded)
                mapped = self.mapped_bytes
            telemetry.set_gauge("blocked.mmap_peak_bytes", mapped)
        return loaded

    def close(self) -> None:
        """Purge spill files; remove the directory when tier-owned."""
        if self.closed:
            return
        self.closed = True
        self.spill.purge()
        if self._owns_dir:
            shutil.rmtree(self.spill.root, ignore_errors=True)

    def stats(self) -> Dict[str, int]:
        return {
            "ram_budget_bytes": self.ram_budget_bytes,
            "term_budget_bytes": self.term_budget_bytes,
            "spmm_calls": self.spmm_calls,
            "tiles": self.tiles,
            "spill_files": self.spill_files,
            "spill_bytes": self.spill_bytes,
            "load_files": self.load_files,
            "mmap_peak_bytes": self.mapped_bytes,
        }


def spmm_csr(csr: sp.csr_matrix, dense: np.ndarray,
             threaded: bool = True) -> np.ndarray:
    """The autodiff integration hook: ``csr @ dense``. A ``threaded``
    product whose work reaches :data:`THREADED_MIN_WORK` runs on the run
    context's ``spmm_threads``; with a blocked tier on the context it is
    tiled under the tier's budget; otherwise it is the plain one-shot
    product. Bit-identical either way."""
    run = context.current()
    dense = np.asarray(dense)
    width = dense.shape[1] if dense.ndim > 1 else 1
    threads = run.spmm_threads \
        if threaded and csr.nnz * width >= THREADED_MIN_WORK else 1
    if run.tier is not None:
        return run.tier.spmm(csr, dense, threads)
    if threads == 1:
        return np.asarray(csr @ dense)
    return blocked_spmm(csr, dense, threads=threads)


__all__ = [
    "BlockedTier",
    "THREADED_MIN_WORK",
    "TILES_PER_THREAD",
    "blocked_spmm",
    "choose_block_rows",
    "default_ram_budget",
    "row_tiles",
    "spmm_csr",
]
