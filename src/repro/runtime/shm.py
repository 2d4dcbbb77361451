"""repro.runtime.shm — cross-process shared term store: a directory of files.

The planner (:mod:`repro.runtime.plan`) dedups ``T^(k)(L̃)·X`` basis
chains only *within* a process, so a pooled sweep rebuilds identical
chains in every worker (``ops.spmm.calls`` ≈ ``workers×`` serial). Inside
a sweep-scoped :class:`SharedTermStore` workers instead publish computed
terms (and the spmm-transpose / normalization CSR blobs of
:mod:`repro.runtime.cache`, and the synthesized graphs of the sweep graph
memo in :mod:`repro.bench.experiments`) as files and map each other's
read-only, keyed by the content fingerprints the in-process caches
already use.

Layout: one directory per store, ``/dev/shm/rsm<run8>/`` — a tmpfs, so a
file there *is* shared memory::

    owner               creator pid (what the leaked-store sweep probes)
    c-<fp>.<k>.npy      order-k term of chain <fp>
    c-<fp>.claim        {"pid": …}: who is computing that chain's suffix
    b-<fp>.<name>.npy   one array of blob <fp>: a CSR operator, or a
                        graph (its CSR arrays, features and labels)
    b-<fp>.json         the blob's metadata, linked last: its commit point
    stats               one appended JSON line per closing client

Every file lands through the file tier (:mod:`repro.runtime.files`), so
it exists completely or not at all, and its bytes are a pure function of
its name: there is no index to keep consistent and nothing for a lock to
protect. Readers take the leading run of a chain's orders that are
present and compute the rest, so any subset of a chain's files is valid
and eviction is just ``unlink``. The term and blob arrays are one
:class:`~repro.runtime.files.ArrayFiles` over the store directory; the
blocked tier's spill directory is another, with the same file names.

Claims: the first process to need a chain suffix links ``c-<fp>.claim``
(an exclusive create), re-scans, computes the remainder, publishes it
and removes the claim; siblings poll meanwhile. A claim is *stale* — and
adopted by the next claimant — when its pid is dead, is this very
process, or the file is older than :data:`CLAIM_TIMEOUT_S`. A waiter
that outlives :data:`WAIT_TIMEOUT_S` computes locally, so a hung
claimant (or two adopters racing for one stale claim) costs duplicated
work, never wrongness.

Crash safety: a SIGKILLed publisher leaves at most a ``*.tmp`` scratch
file and a claim naming a dead pid. Closing the store (on the exit of
:func:`store_scope` or of the bench run that built it) removes the run's
directory, crash or not; :func:`sweep_leaked_segments`,
run on every store creation, reaps directories whose owner is dead. Any
``OSError`` (``ENOSPC``, ``EACCES``, a vanished directory) turns the
client off for the session, releasing its claims; callers compute locally.

Counters: ``shm.terms.{hit,publish,evict}``, ``shm.blobs.{hit,publish,
evict}``, ``shm.claims.{adopted,timeout}``, ``shm.store.disabled`` (a
client degraded to local compute), ``shm.segments.swept`` (leaked files
reaped); gauges ``shm.store.{bytes,peak_bytes}`` (live / peak published
bytes, folded into the registry memory block).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import telemetry
from . import context
from .files import ArrayFiles, link_new

#: Store-directory name prefix; the 8-hex run id follows.
SEGMENT_PREFIX = "rsm"

#: Byte budget for published files; oldest unclaimed entries go first.
BUDGET_BYTES = 512 * 1024 * 1024
#: Backstop staleness for a claim whose pid is still alive.
CLAIM_TIMEOUT_S = 600.0
#: How long a waiter polls for a publication before computing locally.
WAIT_TIMEOUT_S = 120.0
#: Claim-wait poll interval.
POLL_INTERVAL_S = 0.002

_SHM_DIR = "/dev/shm"
_RUN_ID_LEN = 8


def supported() -> bool:
    """Whether this host has a writable ``/dev/shm`` to hold a store."""
    return os.name == "posix" and os.access(_SHM_DIR, os.W_OK | os.X_OK)


def _remove_tree(root: os.PathLike) -> int:
    """Remove a store directory; returns how many files it held."""
    count = 0
    with contextlib.suppress(OSError):
        count = len(os.listdir(root))
    shutil.rmtree(root, ignore_errors=True)
    return count


#: Payload files of a store, name → stat, grouped by ``c-<fp>``/``b-<fp>``.
_Entries = Dict[str, Dict[str, os.stat_result]]


def _total_size(entries: _Entries) -> int:
    return sum(stat.st_size for files in entries.values()
               for stat in files.values())


def _pid_alive(pid: Any) -> bool:
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError, OverflowError):
        return False
    except PermissionError:
        return True
    return True


def _digest(parts: Sequence[Any]) -> str:
    blob = json.dumps(list(parts), sort_keys=True, default=repr,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def chain_fingerprint(operator: Any, backend: str, signal: Any,
                      family: str, params: Tuple) -> str:
    """Content address of a basis chain: operator digest
    (:func:`repro.runtime.cache.operator_digest`) + backend + signal
    digest (:func:`repro.runtime.plan.signal_digest`) + family + scaling
    params — the cross-process analogue of the planner's ``id()``-based
    local key."""
    return _digest(["chain", operator, backend, signal, family, params])


def blob_fingerprint(kind: str, *parts: Any) -> str:
    """Content address of a blob (``spmm_t``, ``norm``, ``graph`` …)."""
    return _digest(["blob", kind, *parts])


def term_name(fingerprint: str, order: int) -> str:
    """Name of a chain's order-``order`` term file, in the shared store
    and in the blocked tier's spill directory alike."""
    return f"c-{fingerprint}.{order}"


# ======================================================================
# client
# ======================================================================
class StoreHandle:
    """One process's client of a store directory.

    A handle is ``(root, run_id)`` plus this client's own traffic, so it
    pickles into a worker under any start method. :meth:`close` appends
    the traffic to the ``stats`` file for the owner to sum — a killed
    worker loses only its own counts.
    """

    def __init__(self, root: os.PathLike, run_id: str):
        self.root = Path(root)
        self.run_id = run_id
        self.files = ArrayFiles(self.root)
        self.traffic = {"hits": 0, "publishes": 0, "peak_bytes": 0}
        self._claims: Set[str] = set()
        self._disabled = False

    def _disable(self) -> None:
        """The directory failed us: serve nothing further this session,
        and let go of every claim so no sibling waits on this process."""
        if not self._disabled:
            self._disabled = True
            telemetry.inc_counter("shm.store.disabled")
        for fp in list(self._claims):
            self.abandon_claim(fp)

    # -- claims ---------------------------------------------------------
    def _try_claim(self, fp: str) -> bool:
        path = self.root / f"c-{fp}.claim"
        text = json.dumps({"pid": os.getpid()})
        try:
            holder = json.loads(path.read_text()).get("pid")
            age = time.time() - path.stat().st_mtime
        except FileNotFoundError:
            won = link_new(path, text)  # unclaimed: race for it
        else:
            if holder != os.getpid() and _pid_alive(holder) \
                    and age <= CLAIM_TIMEOUT_S:
                return False  # a waiter's poll costs one read, no write
            path.unlink(missing_ok=True)
            won = link_new(path, text)
            if won:
                telemetry.inc_counter("shm.claims.adopted")
        if won:
            self._claims.add(fp)
        return won

    def abandon_claim(self, fp: str) -> None:
        """Drop this process's claim so siblings stop waiting on it. Best
        effort and allowed on a disabled client: an unlink needs no space,
        and a claim left behind would stall every waiter."""
        self._claims.discard(fp)
        path = self.root / f"c-{fp}.claim"
        with contextlib.suppress(OSError):
            if json.loads(path.read_text()).get("pid") == os.getpid():
                path.unlink()

    # -- chain protocol -------------------------------------------------
    def _serve(self, fp: str, have: int, want: int,
               served: List[np.ndarray]) -> bool:
        """Append the leading run of published orders; True once the
        request is complete."""
        first = have + len(served) + 1
        found = self.files.leading(term_name(fp, order)
                                   for order in range(first, want + 1))
        if found:
            served.extend(found)
            self.traffic["hits"] += len(found)
            telemetry.inc_counter("shm.terms.hit", len(found))
        return have + len(served) >= want

    def plan_chain(self, fp: str, have: int, want: int
                   ) -> Tuple[List[np.ndarray], bool]:
        """Resolve a chain-extension request against the store.

        ``have``/``want`` count k ≥ 1 terms (the signal itself is never
        stored). Returns ``(served, claimed)``: read-only maps of orders
        ``have+1 … have+len(served)``, and whether this process now owns
        computing the remainder — it then MUST finish with
        :meth:`publish_terms` or :meth:`abandon_claim`. Blocks (bounded
        by :data:`WAIT_TIMEOUT_S`) while another live process holds the
        chain's claim.
        """
        served: List[np.ndarray] = []
        if self._disabled or have >= want:
            return served, False
        deadline = time.monotonic() + WAIT_TIMEOUT_S
        try:
            while not self._serve(fp, have, want, served):
                if self._try_claim(fp):
                    # A sibling may have published between scan and claim.
                    if self._serve(fp, have, want, served):
                        self.abandon_claim(fp)
                        return served, False
                    return served, True
                if time.monotonic() > deadline:
                    telemetry.inc_counter("shm.claims.timeout")
                    break
                time.sleep(POLL_INTERVAL_S)
        except OSError:
            self._disable()
        return served, False

    def publish_terms(self, fp: str, first_order: int,
                      terms: Sequence[np.ndarray]) -> bool:
        """Publish computed orders ``first_order …`` of a chain, then
        release this process's claim on it. False when the store is
        unavailable or every order was already present — the caller's
        locally computed terms stay valid either way."""
        if self._disabled or not terms:
            return False
        try:
            landed = sum(
                1 for offset, term in enumerate(terms)
                if self.files.put(term_name(fp, first_order + offset), term))
            self.abandon_claim(fp)
            if landed:
                self._published(landed, "shm.terms.publish", f"c-{fp}")
        except OSError:
            self._disable()
            return False
        return landed > 0

    # -- blob protocol (CSR operators, synthesized graphs) --------------
    def fetch_blob(self, fp: str) -> Optional[Tuple[Dict[str, np.ndarray],
                                                    dict]]:
        """Map a published blob: ``(name → read-only array, meta)``."""
        if self._disabled:
            return None
        commit = self.root / f"b-{fp}.json"
        try:
            record = json.loads(commit.read_text())
            arrays = {name: self.files.get(f"b-{fp}.{name}")
                      for name in record["arrays"]}
            if any(array is None for array in arrays.values()):
                # Evicted under us; dropping a commit point left dangling
                # by a lost eviction race lets the next publisher repair it.
                commit.unlink(missing_ok=True)
                return None
        except FileNotFoundError:
            return None
        except OSError:
            self._disable()
            return None
        self.traffic["hits"] += 1
        telemetry.inc_counter("shm.blobs.hit")
        return arrays, record["meta"]

    def publish_blob(self, fp: str, arrays: Dict[str, np.ndarray],
                     meta: Optional[dict] = None) -> bool:
        """Publish named arrays as one blob (first publisher wins)."""
        if self._disabled or not arrays:
            return False
        commit = self.root / f"b-{fp}.json"
        try:
            if commit.exists():
                return False
            for name, array in arrays.items():
                self.files.put(f"b-{fp}.{name}", array)
            if not link_new(commit, json.dumps(
                    {"arrays": list(arrays), "meta": meta or {}})):
                return False
            self._published(1, "shm.blobs.publish", f"b-{fp}")
        except OSError:
            self._disable()
            return False
        return True

    # -- accounting and eviction ----------------------------------------
    def _entries(self) -> Tuple[_Entries, Set[str]]:
        """The payload files, and the entries carrying a claim file."""
        entries: _Entries = {}
        claimed: Set[str] = set()
        with os.scandir(self.root) as listing:
            for item in listing:
                key, _, rest = item.name.partition(".")
                if key[:2] not in ("c-", "b-"):
                    continue
                if rest == "claim":
                    claimed.add(key)
                    continue
                with contextlib.suppress(FileNotFoundError):
                    entries.setdefault(key, {})[item.name] = item.stat()
        return entries, claimed

    def _published(self, count: int, counter: str, protect: str) -> None:
        """Count ``count`` landed files, then hold the byte budget:
        unlink oldest-first, never a claimed chain, a blob still being
        written (no commit point yet) or the entry just published."""
        self.traffic["publishes"] += count
        telemetry.inc_counter(counter, count)
        entries, claimed = self._entries()
        live = _total_size(entries)
        for key in sorted(entries, key=lambda key: min(
                stat.st_mtime for stat in entries[key].values())):
            if live <= BUDGET_BYTES:
                break
            files = entries[key]
            commit = f"{key}.json"
            is_blob = key.startswith("b-")
            if key == protect or key in claimed \
                    or (is_blob and commit not in files):
                continue
            # The commit point goes first, so a blob is never half there.
            for name in sorted(files, key=lambda name: name != commit):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self.root / name)
            live -= _total_size({key: files})
            if is_blob:
                telemetry.inc_counter("shm.blobs.evict")
            else:
                telemetry.inc_counter("shm.terms.evict", len(files))
        peak = self.traffic["peak_bytes"] = max(self.traffic["peak_bytes"],
                                                live)
        telemetry.set_gauge("shm.store.bytes", live)
        telemetry.set_gauge("shm.store.peak_bytes", peak)

    def close(self) -> None:
        """Report this client's traffic to the owner (one ``O_APPEND``
        write, so concurrent closers never interleave)."""
        if not any(self.traffic.values()):
            return
        line = (json.dumps(self.traffic) + "\n").encode("utf-8")
        with contextlib.suppress(OSError):
            fd = os.open(self.root / "stats",
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        self.traffic = dict.fromkeys(self.traffic, 0)


class SharedTermStore(StoreHandle):
    """Sweep-scoped owner of one store directory (and a client of it).

    Creating the store sweeps directories leaked by crashed runs, then
    makes ``/dev/shm/rsm<run8>/``. :meth:`close` sums the clients'
    reported traffic and removes the directory.
    """

    def __init__(self):
        if not supported():
            raise RuntimeError(
                "shared term store requires a writable /dev/shm")
        sweep_leaked_segments()
        run_id = uuid.uuid4().hex[:_RUN_ID_LEN]
        super().__init__(os.path.join(_SHM_DIR, SEGMENT_PREFIX + run_id),
                         run_id)
        self.root.mkdir(mode=0o700)
        link_new(self.root / "owner", str(os.getpid()))
        self._final_stats: Optional[dict] = None

    def worker_handle(self) -> StoreHandle:
        """A picklable client for one pool worker process."""
        return StoreHandle(self.root, self.run_id)

    def _snapshot(self) -> dict:
        reports = [self.traffic]
        entries: _Entries = {}
        with contextlib.suppress(OSError):
            entries, _ = self._entries()
            reports += [json.loads(line) for line in
                        (self.root / "stats").read_text().splitlines()]
        chains = [files for key, files in entries.items()
                  if key.startswith("c-")]
        return {
            "chains": len(chains),
            "blobs": sum(1 for key, files in entries.items()
                         if f"{key}.json" in files),
            "terms": sum(len(files) for files in chains),
            "bytes": _total_size(entries),
            "peak_bytes": max(report["peak_bytes"] for report in reports),
            "hits": sum(report["hits"] for report in reports),
            "publishes": sum(report["publishes"] for report in reports),
        }

    def stats(self) -> dict:
        """Cross-process traffic summary (final snapshot after close)."""
        return dict(self._final_stats or self._snapshot())

    def close(self) -> dict:
        """Snapshot stats, then remove this run's directory."""
        if self._final_stats is None:
            self._final_stats = self._snapshot()
            self._final_stats["segments_unlinked"] = _remove_tree(self.root)
        return dict(self._final_stats)


def sweep_leaked_segments(max_age_s: float = 300.0) -> int:
    """Reap ``rsm*`` directories leaked by crashed runs; returns how many
    files went with them.

    A directory is leaked when its owner pid is dead. One whose ``owner``
    file is missing or unreadable is only reaped once it has been idle
    for ``max_age_s``, so a store being created is never swept out from
    under its owner.
    """
    if not supported():
        return 0
    removed = 0
    for name in os.listdir(_SHM_DIR):
        path = os.path.join(_SHM_DIR, name)
        if not name.startswith(SEGMENT_PREFIX) \
                or len(name) != len(SEGMENT_PREFIX) + _RUN_ID_LEN \
                or not os.path.isdir(path):
            continue
        leaked = False
        try:
            leaked = not _pid_alive(int(Path(path, "owner").read_text()))
        except (OSError, ValueError):
            with contextlib.suppress(OSError):
                leaked = time.time() - os.path.getmtime(path) > max_age_s
        if leaked:
            removed += _remove_tree(path)
    if removed:
        telemetry.inc_counter("shm.segments.swept", removed)
    return removed


@contextmanager
def store_scope(store: SharedTermStore) -> Iterator[SharedTermStore]:
    """Install ``store`` as the run context's store for the body of a
    sweep (parent side), so a pooled sweep ships its workers a client;
    the store is closed — stats snapshotted, its directory removed — on
    exit, crash or not."""
    try:
        with context.using(store=store):
            yield store
    finally:
        store.close()
