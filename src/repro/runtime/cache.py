"""repro.runtime.cache — instrumented memoization for the sparse hot paths.

The paper's efficiency story hinges on the propagation stage: precompute
and spmm dominate time and RAM across the FB/MB/GP schemes (Section 5).
PR 1's op counters made two forms of recomputation visible:

1. ``spmm`` backward re-materialized ``csr.T.tocsr()`` on every call —
   once per epoch per propagation hop, for a matrix that never changes.
2. ``normalized_adjacency`` was rebuilt per (filter, scheme) combination
   inside sweep loops, so the ``precompute`` span dominated small-graph
   efficiency runs.

This module closes both with a small, observable memoization layer:

- :class:`LRUCache` — a bounded, thread-safe, move-to-front cache whose
  hits / misses / evictions are both tracked locally and mirrored into
  telemetry counters (``<prefix>.hit`` / ``.miss`` / ``.evict``), so any
  trace shows exactly what the caches did.
- One process-wide entry per propagation operator, keyed by the
  operator's identity and validated against a mutation fingerprint
  (:func:`matrix_token`), so an in-place edit of the sparse data
  invalidates the entry instead of silently serving stale bytes. It
  holds what is derived from the operator once, the way PyG's
  ``EdgeIndex`` caches its CSR/CSC pointers:

  - :func:`transpose_csr` — ``Pᵀ`` for every spmm backward. An operator
    whose transpose has its exact bytes (each ρ = ½ ``Ã`` and ``L̃``) is
    its own transpose: the entry stores a marker, not a second copy.
  - :func:`segment_reducer` — the weighted row-segment matrix with which
    the ``coo_gather`` backend weighs and sums its message buffer.
  - :func:`operator_tiles` — the row tiles a threaded product
    (:mod:`repro.runtime.blocked`) splits the operator into.
  - :func:`operator_digest` — a full content digest that names the
    operator's blobs in the cross-process store.
- Per-graph normalization memos use :class:`LRUCache` directly (see
  :meth:`repro.graph.graph.Graph.normalized_adjacency`).

Everything respects the run context's ``cache`` switch
(:mod:`repro.runtime.context`; ``--no-cache`` on the bench CLI,
``context.using(cache=False)`` in code). Off means *bypass*: callers
recompute exactly what the seed code computed, which is what lets the
property-test suite assert bit-identical numerics cached vs. uncached.

Counters emitted (when telemetry is configured):

- ``cache.spmm_t.{hit,miss}`` — transpose lookups (reducer and digest
  lookups are not counted); ``cache.spmm_t.evict`` — operator entries
  evicted.
- ``cache.norm_adj.{hit,miss,evict}`` — normalization memo traffic.
- ``ops.spmm.transpose_builds`` — actual ``csr.T.tocsr()``
  materializations; with the cache on this stays at ≤ 1 per matrix.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import Counter, OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .. import telemetry
from . import context, shm

#: Default bound on process-wide operator entries (transpose, reducer,
#: digest). MB sweeps touch many graphs; bounding the entry count keeps
#: host RAM growth bounded too.
TRANSPOSE_CACHE_ENTRIES = 32

#: Default bound on per-graph normalization memo entries — one entry per
#: distinct (operator, ρ, self-loops) key, so 16 covers every sweep in the
#: bench suite with room to spare.
NORM_MEMO_ENTRIES = 16

_MISSING = object()


class LRUCache:
    """Bounded move-to-front memo with local and telemetry instrumentation.

    Parameters
    ----------
    capacity:
        Maximum entry count; the least-recently-used entry is evicted when
        a put would exceed it.
    counter_prefix:
        When set, every hit / miss / eviction also increments the
        telemetry counters ``<prefix>.hit`` / ``.miss`` / ``.evict`` on
        the active registry (no-op while telemetry is disabled).
    on_evict:
        Optional ``(key, value)`` callback fired for each capacity
        eviction (not for ``discard``/``clear``), letting owners account
        for what the dropped entry carried — e.g. the basis planner
        counts evicted chain terms.
    """

    def __init__(self, capacity: int, counter_prefix: Optional[str] = None,
                 on_evict: Optional[Callable[[Any, Any], None]] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.counter_prefix = counter_prefix
        self.on_evict = on_evict
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()
        # Reentrant: weakref eviction callbacks may fire inside a put.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    def _count(self, outcome: str) -> None:
        if self.counter_prefix is not None:
            telemetry.inc_counter(f"{self.counter_prefix}.{outcome}")

    def get(self, key: Any,
            validate: Optional[Callable[[Any], bool]] = None,
            count: bool = True) -> Any:
        """Return the cached value or ``MISSING``; refreshes recency.

        ``validate(value)`` may reject a structurally-present entry (e.g.
        the cached matrix was mutated); rejection counts as a miss and
        drops the entry. ``count=False`` leaves the outcome to the caller's
        own :meth:`record`.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING and validate is not None and not validate(value):
                del self._entries[key]
                value = _MISSING
            if value is not _MISSING:
                self._entries.move_to_end(key)
            if count:
                self.record(value is not _MISSING)
            return value

    def record(self, hit: bool) -> None:
        """Count one lookup as a hit or a miss, locally and in telemetry."""
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1
        self._count("hit" if hit else "miss")

    def put(self, key: Any, value: Any) -> None:
        """Insert/overwrite an entry, evicting the LRU tail past capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted_key, evicted_value = self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evict")
                if self.on_evict is not None:
                    self.on_evict(evicted_key, evicted_value)

    def discard(self, key: Any) -> None:
        """Drop an entry if present (not counted as an eviction)."""
        with self._lock:
            self._entries.pop(key, None)

    def pop_lru(self, skip: Any = None) -> Optional[Tuple[Any, Any]]:
        """Evict the least-recently-used entry (counted, ``on_evict`` fired).

        ``skip`` protects one key — the basis planner uses it to shed
        resident chains over the blocked tier's byte budget without
        evicting the chain it is currently extending. Returns the
        evicted ``(key, value)`` or ``None`` when nothing is evictable.
        """
        with self._lock:
            for key in self._entries:
                if skip is not None and key == skip:
                    continue
                value = self._entries.pop(key)
                self.evictions += 1
                self._count("evict")
                if self.on_evict is not None:
                    self.on_evict(key, value)
                return key, value
            return None

    def get_or_compute(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Memoized call: the cached value, else ``factory()``."""
        value = self.get(key)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry and reset the local hit/miss/evict tallies."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Local (telemetry-independent) traffic summary."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

#: Sentinel returned by ``LRUCache.get`` on a miss.
MISSING = _MISSING


def data_token(value: Any) -> str:
    """Stable content fingerprint of plain config-like data (16 hex chars).

    The third token family next to :func:`matrix_token` (sparse payloads)
    and :func:`repro.runtime.plan.array_token` (dense signals): dicts,
    dataclasses (e.g. :class:`~repro.training.loop.TrainConfig`), tuples,
    numpy scalars, and ``None`` all reduce through the manifest's
    JSON-stable ``_plain`` normalization before hashing, so logically
    equal configurations fingerprint identically across processes and
    runs. The artifact store (:mod:`repro.runtime.artifacts`) keys cell
    content addresses on it.
    """
    import json

    from ..telemetry.manifest import _plain

    payload = json.dumps(_plain(value), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def matrix_token(matrix: sp.spmatrix) -> Tuple:
    """Cheap mutation fingerprint of a sparse matrix's payload.

    Combines shape, nnz, dtype, and a strided checksum of the data array
    (≤ 64 samples plus the exact endpoints), so in-place edits of values
    or structure change the token with overwhelming probability while the
    cost stays O(1)-ish relative to an spmm over the same matrix.
    """
    data = matrix.data
    nnz = int(data.shape[0]) if data.ndim else 0
    if nnz == 0:
        checksum = 0.0
    else:
        stride = max(1, nnz // 64)
        sample = data[::stride]
        checksum = float(np.asarray(sample, dtype=np.float64).sum())
        checksum += float(data[0]) * 3.0 + float(data[-1]) * 7.0
    return (matrix.shape, nnz, data.dtype.str, checksum)


def operator_digest(matrix: sp.spmatrix) -> str:
    """Full content digest of a sparse operator (32 hex chars).

    Hashes the shape and every byte of ``indptr``, ``indices`` and
    ``data``, so unlike :func:`matrix_token` it separates two unweighted
    graphs with the same node and edge counts. It names what crosses a
    process boundary (the shared store's ``spmm_t`` and ``norm`` blobs) and
    is computed once per operator per process.
    """
    if not context.current().config.cache:
        return _full_digest(matrix)
    entry = _derived(matrix)
    if entry.digest is None:
        entry.digest = _full_digest(matrix)
    return entry.digest


def _full_digest(matrix: sp.spmatrix) -> str:
    csr = matrix.tocsr()
    digest = hashlib.blake2b(repr(csr.shape).encode(), digest_size=16)
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(array.dtype.str.encode())
        digest.update(_raw(array))
    return digest.hexdigest()


def _raw(array: np.ndarray) -> np.ndarray:
    """The bytes of a 1-D array as a ``uint8`` array."""
    return np.ascontiguousarray(array).view(np.uint8)


class _Derived:
    """What the process derived from one operator, bound to it by a weak
    reference and its :func:`matrix_token`: the transpose (``_SELF`` when
    the operator is bytewise its own), the segment reducer, the
    :func:`operator_digest` and the row tilings by key, each filled on
    first use."""

    __slots__ = ("ref", "token", "transpose", "reducer", "digest", "tiles")

    def __init__(self, ref: weakref.ref, token: Tuple):
        self.ref, self.token = ref, token
        self.transpose = self.reducer = self.digest = None
        self.tiles: Dict[int, Any] = {}


#: Marks an operator whose transpose has its exact bytes.
_SELF = object()

_operator_cache = LRUCache(TRANSPOSE_CACHE_ENTRIES,
                           counter_prefix="cache.spmm_t")
_builds: Counter = Counter()
_builds_lock = threading.Lock()


def _derived(matrix: sp.spmatrix) -> _Derived:
    """The operator's entry (created empty), looked up without counting.

    The entry is bound to the *object*: a weak reference proves the key's
    ``id`` still names the same matrix (ids recycle after GC), and the
    token proves its payload was not mutated since caching. Either check
    failing drops the entry, and everything derived is rebuilt.
    """
    key = id(matrix)
    token = matrix_token(matrix)
    entry = _operator_cache.get(
        key, validate=lambda e: e.ref() is matrix and e.token == token,
        count=False)
    if entry is _MISSING:
        def _on_collect(_ref, _key=key):
            _operator_cache.discard(_key)

        entry = _Derived(weakref.ref(matrix, _on_collect), token)
        _operator_cache.put(key, entry)
    return entry


def materialize_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Build ``matrixᵀ`` in CSR form, counting the materialization.

    Every actual ``.T.tocsr()`` in the process funnels through here so
    ``ops.spmm.transpose_builds`` is the ground truth the bench gate and
    the acceptance criterion (≤ 1 build per matrix with the cache on)
    read.
    """
    with _builds_lock:
        _builds["transpose"] += 1
    transposed = matrix.T.tocsr()
    telemetry.inc_counter("ops.spmm.transpose_builds")
    telemetry.inc_counter("ops.spmm.transpose_bytes",
                          transposed.data.nbytes + transposed.indices.nbytes
                          + transposed.indptr.nbytes)
    return transposed


def transpose_build_count() -> int:
    """Process-wide count of actual transpose materializations."""
    return _builds["transpose"]


def transpose_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Cached ``matrixᵀ`` (CSR), held in the operator's entry.

    On a miss the transpose is built (or mapped from the shared store);
    when its ``indptr``, ``indices`` and ``data`` bytes equal the
    operator's — every ρ = ½ operator a :class:`~repro.graph.Graph` builds
    — the entry keeps a marker instead of a second copy, this returns
    ``matrix`` itself, and nothing is published. Only these lookups move
    the ``cache.spmm_t.{hit,miss}`` counters.
    """
    if not context.current().config.cache:
        return materialize_transpose(matrix)
    entry = _derived(matrix)
    _operator_cache.record(entry.transpose is not None)
    if entry.transpose is None:
        def build():
            transposed = materialize_transpose(matrix)
            return _SELF if _same_csr(matrix, transposed) else transposed

        entry.transpose = shared_blob(
            "spmm_t", lambda: (operator_digest(matrix),), build,
            lambda value: None if value is _SELF else csr_blob(value),
            csr_from_blob)
    return matrix if entry.transpose is _SELF else entry.transpose


def _same_csr(matrix: sp.spmatrix, other: sp.csr_matrix) -> bool:
    """Whether ``matrix`` is a CSR matrix with ``other``'s shape and bytes."""
    if matrix.format != "csr" or matrix.shape != other.shape:
        return False
    return all(a.dtype == b.dtype and np.array_equal(_raw(a), _raw(b))
               for a, b in ((matrix.indptr, other.indptr),
                            (matrix.indices, other.indices),
                            (matrix.data, other.data)))


def segment_reducer(csr: sp.csr_matrix) -> sp.csr_matrix:
    """The ``(n, nnz)`` matrix ``R`` with ``R[i, e] = data[e]`` for every
    stored entry ``e`` of row ``i``, cached in the operator's entry.

    ``R @ x[indices]`` is ``csr @ x`` computed edge-wise: scipy's CSR
    kernel adds ``data[e] · x[indices[e]]`` to row ``i`` in stored order,
    one rounded multiply and one rounded add per entry — the roundings of
    weighing the gathered rows first and summing them after. ``R`` shares
    ``data`` and ``indptr`` with the operator, so a build costs one
    ``arange``; it is rebuilt per call while the cache layer is off.
    """
    if not context.current().config.cache:
        return _build_reducer(csr)
    entry = _derived(csr)
    if entry.reducer is None:
        entry.reducer = _build_reducer(csr)
    return entry.reducer


def _build_reducer(csr: sp.csr_matrix) -> sp.csr_matrix:
    nnz = int(csr.indptr[-1])
    return sp.csr_matrix(
        (csr.data, np.arange(nnz, dtype=csr.indptr.dtype), csr.indptr),
        shape=(csr.shape[0], nnz))


def operator_tiles(csr: sp.csr_matrix, parts: int,
                   build: Callable[[], Any]) -> Any:
    """``build()`` — the operator's ``parts`` row tiles — cached in the
    operator's entry beside its transpose and reducer; built per call
    while the cache layer is off. A tiling holds views of the operator's
    ``indices`` and ``data``, so only its shifted ``indptr`` costs bytes."""
    if not context.current().config.cache:
        return build()
    tiles = _derived(csr).tiles
    if parts not in tiles:
        tiles[parts] = build()
    return tiles[parts]


#: A blob's payload: named arrays plus JSON metadata (see :mod:`.shm`).
Blob = Tuple[Dict[str, np.ndarray], dict]


def shared_blob(kind: str, parts: Union[Tuple, Callable[[], Tuple]],
                build: Callable[[], Any],
                encode: Callable[[Any], Optional[Blob]],
                decode: Callable[[Dict[str, np.ndarray], dict], Any]) -> Any:
    """``build()``, shared across pool workers when a store is attached.

    The one fetch → build → publish sequence behind the spmm-transpose
    cache, the per-graph normalization memo and the sweep graph memo:
    the blob named by ``(kind, *parts)`` is mapped read-only and
    ``decode``-d when a sibling already published it; otherwise the value
    is built here and published ``encode``-d for the siblings (unless
    ``encode`` returns ``None``). ``parts`` may be a callable, evaluated
    only when a store is attached. Without a serving store client on the
    run context — or when the blob is absent or malformed — this is just
    ``build()``.
    """
    handle = context.current().active_handle
    if handle is None:
        return build()
    fingerprint = shm.blob_fingerprint(kind, *(parts() if callable(parts)
                                               else parts))
    blob = handle.fetch_blob(fingerprint)
    if blob is not None:
        try:
            return decode(*blob)
        except (KeyError, TypeError, ValueError):
            pass  # malformed: build locally, never an error
    value = build()
    payload = encode(value)
    if payload is not None:
        handle.publish_blob(fingerprint, *payload)
    return value


def csr_blob(matrix: sp.spmatrix) -> Blob:
    """A sparse matrix as CSR blob arrays plus ``{shape, sorted}``."""
    csr = matrix if sp.isspmatrix_csr(matrix) else matrix.tocsr()
    return ({"data": csr.data, "indices": csr.indices, "indptr": csr.indptr},
            {"shape": list(csr.shape), "sorted": bool(csr.has_sorted_indices)})


def csr_from_blob(arrays: Dict[str, np.ndarray], meta: dict) -> sp.csr_matrix:
    """The zero-copy CSR view of a blob written by :func:`csr_blob`."""
    matrix = sp.csr_matrix(
        (arrays["data"], arrays["indices"], arrays["indptr"]),
        shape=tuple(meta["shape"]), copy=False)
    if meta.get("sorted"):
        # Publisher guaranteed sortedness; recording it stops scipy from
        # attempting an in-place sort of the read-only index arrays.
        matrix.has_sorted_indices = True
    return matrix


def shared_csr(kind: str, parts: Union[Tuple, Callable[[], Tuple]],
               build: Callable[[], sp.spmatrix]) -> sp.spmatrix:
    """:func:`shared_blob` for a sparse matrix, served zero-copy as CSR."""
    return shared_blob(kind, parts, build, csr_blob, csr_from_blob)


def clear_transpose_cache() -> None:
    """Empty the operator cache and reset its counters (tests, CLI)."""
    _operator_cache.clear()
    with _builds_lock:
        _builds.clear()


def norm_memo() -> LRUCache:
    """Fresh per-graph normalization memo (``cache.norm_adj.*`` counters)."""
    return LRUCache(NORM_MEMO_ENTRIES, counter_prefix="cache.norm_adj")
