"""repro.runtime.blocked — out-of-core blocked execution tier.

The paper's efficiency/memory tables (Tables 5–6) are defined on
full-size graphs, but every propagation path in this repo materializes
dense ``n × d`` term matrices in RAM — nothing downstream of the
synthesizer survived ``scale=1.0`` before this module. The blocked tier
makes those rows *measurable* instead of extrapolated:

- **Tiled CSR spmm** — :func:`blocked_spmm` evaluates ``P @ X`` over
  row-block tiles. CSR matmul computes each output row independently
  from that row's nonzeros, so row tiling executes the *same
  floating-point operations in the same order* as the one-shot product:
  the tiled result is bit-identical to the in-core path (the same
  contract the planner and every cache in this repo already hold, and
  what the ``bench-blocked`` CI gate asserts end to end).
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
for the run). :func:`spmm_csr` is the single integration hook — the
autodiff spmm paths (:mod:`repro.autodiff.sparse`) route every CSR
product through it, so full-batch training, mini-batch precompute, and
per-cluster GP propagation all tile transparently when a tier is active
and run the original one-shot product otherwise.

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

import os
import shutil
import tempfile
import threading
from typing import Dict, Iterable, List, Optional

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from ..telemetry.rss import current_rss_bytes
from . import context
from .files import ArrayFiles

#: Floor for a derived RAM budget: even on a tiny container the tier
#: should not degenerate into single-row tiles.
MIN_RAM_BUDGET_BYTES = 64 * 2 ** 20

#: Fraction of the RAM budget one spmm tile (output rows) may occupy.
TILE_BUDGET_FRACTION = 0.25

#: Fraction of the RAM budget the planner's resident term store may
#: occupy before chains spill to disk.
TERM_BUDGET_FRACTION = 0.5


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


def blocked_spmm(csr: sp.csr_matrix, dense: np.ndarray, block_rows: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """``csr @ dense`` over row-block tiles, bit-identical to the one-shot
    product (each output row's accumulation order is unchanged by row
    slicing). ``out`` may be any preallocated array of the result shape
    (including a ``numpy.memmap``)."""
    num_rows = csr.shape[0]
    if block_rows >= num_rows:
        result = np.asarray(csr @ dense)
        if out is None:
            return result
        out[...] = result
        return out
    shape = (num_rows,) + tuple(np.asarray(dense).shape[1:])
    if out is None:
        out = np.empty(shape, dtype=np.result_type(csr.dtype, dense.dtype))
    for start in range(0, num_rows, block_rows):
        stop = min(start + block_rows, num_rows)
        out[start:stop] = csr[start:stop] @ dense
    return out


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

    def spmm(self, csr: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
        """Tiled ``csr @ dense`` under this tier's budget."""
        dense = np.asarray(dense)
        width = dense.shape[1] if dense.ndim > 1 else 1
        row_nbytes = width * np.result_type(csr.dtype, dense.dtype).itemsize
        block_rows = self.block_rows_for(csr.shape[0], row_nbytes)
        ntiles = max(1, -(-csr.shape[0] // block_rows))
        self.spmm_calls += 1
        self.tiles += ntiles
        telemetry.inc_counter("blocked.spmm_calls")
        telemetry.inc_counter("blocked.tiles", ntiles)
        return blocked_spmm(csr, dense, block_rows)

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


def spmm_csr(csr: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """The autodiff integration hook: ``csr @ dense``, tiled when the run
    context carries a blocked tier, the plain one-shot product otherwise.
    Bit-identical either way."""
    tier = context.current().tier
    if tier is None:
        return np.asarray(csr @ dense)
    return tier.spmm(csr, dense)


__all__ = [
    "BlockedTier",
    "blocked_spmm",
    "choose_block_rows",
    "default_ram_budget",
    "spmm_csr",
]
