"""Cross-process shared term store (:mod:`repro.runtime.shm`) tests.

The store is a directory of content-addressed files; its contract has
four faces, each covered here:

1. **Fingerprints** — chain and blob names are content addresses (the
   file tier under them is tested in ``tests/test_runtime_files.py``).
2. **Protocol** — blob publish/fetch is first-publisher-wins (also
   between racing processes); chain claims are exclusive, adoptable when
   their holder dies, abandonable, and a waiter gives up after
   ``WAIT_TIMEOUT_S``. Any subset of a chain's files is a valid store.
   Oldest-first eviction keeps published bytes under budget without ever
   evicting the entry being published. A client that meets an
   ``OSError`` (``ENOSPC``, ``EACCES``, a vanished directory) degrades
   to local compute instead of failing the sweep.
3. **Crash safety** — scope exit removes the run's directory;
   :func:`~repro.runtime.shm.sweep_leaked_segments` reaps directories
   whose owner died; a publisher SIGKILLed mid-write leaves only a
   scratch file and a claim the next claimant adopts (the subprocess
   variant that also checks stderr lives in ``tests/test_runtime_pool.py``
   with the slow marker).
4. **Invisibility** — with a worker handle installed, planner-served
   shared terms and shared CSR blobs are byte-identical to local
   computation across the full 27-filter taxonomy (parametrized + a
   hypothesis property), and ``--no-cache`` semantics turn the store
   off via the run context's ``active_handle``. A sweep cell's
   graph served from the store is byte-identical to a fresh synthesis,
   and a pooled grid's rows equal the inline ones under ``fork`` and
   ``spawn``.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import multiprocessing as mp
import os
import pickle
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.bench import experiments
from repro.bench.io import canonical_payload
from repro.datasets.registry import get_spec
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.runtime import cache, context, plan, shm
from repro.runtime.context import WorkerContext
from repro.runtime.pool import Cell, PoolConfig, execute_cells
from repro.runtime.shm import (
    SharedTermStore,
    blob_fingerprint,
    chain_fingerprint,
    sweep_leaked_segments,
    term_name,
)
from repro.training.loop import TrainConfig

pytestmark = pytest.mark.skipif(not shm.supported(),
                                reason="no writable /dev/shm")


@pytest.fixture(autouse=True)
def _clean_state():
    """Isolate tests from leftover telemetry."""
    telemetry.shutdown()
    yield
    telemetry.shutdown()


@contextlib.contextmanager
def serving(handle):
    """Run the body as a pool worker runs a cell: ``handle`` is the run
    context's store client, closed (its traffic reported) on exit."""
    worker = WorkerContext(context.current().config, handle=handle)
    with worker.install() as run:
        yield run.handle


@pytest.fixture()
def store():
    instance = SharedTermStore()
    yield instance
    instance.close()
    assert not _run_segments(instance.run_id), \
        "store close left its directory in /dev/shm"


def _run_segments(run_id: str) -> list:
    prefix = f"{shm.SEGMENT_PREFIX}{run_id}"
    if not os.path.isdir("/dev/shm"):
        return []
    return [name for name in os.listdir("/dev/shm")
            if name.startswith(prefix)]


def _run_files(store) -> set:
    return set(os.listdir(store.root))


def _dead_pid() -> int:
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    probe.wait()
    return probe.pid


def _forge_claim(store, fp: str, pid: int) -> None:
    (store.root / f"c-{fp}.claim").write_text(json.dumps({"pid": pid}))


def _counters() -> dict:
    return telemetry.get_metrics().snapshot()["counters"]


# ---------------------------------------------------------------------------
# 1. fingerprints
# ---------------------------------------------------------------------------

class TestFingerprints:
    MTOK = ((4, 4), 8, "<f8", 3.25)
    XTOK = ("x", 16, "<f4", 1.5)

    def test_chain_fingerprint_deterministic(self):
        first = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                  "monomial_adj", (0.5,))
        again = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                  "monomial_adj", (0.5,))
        assert first == again and len(first) == 16

    def test_chain_fingerprint_sensitivity(self):
        base = chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                 "monomial_adj", (0.5,))
        assert base != chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                         "monomial_lap", (0.5,))
        assert base != chain_fingerprint(self.MTOK, "numpy", self.XTOK,
                                         "monomial_adj", (0.25,))
        assert base != chain_fingerprint(self.MTOK, "autodiff", self.XTOK,
                                         "monomial_adj", (0.5,))
        other_x = ("x", 16, "<f4", 2.5)
        assert base != chain_fingerprint(self.MTOK, "numpy", other_x,
                                         "monomial_adj", (0.5,))

    def test_blob_fingerprint_kind_scoped(self):
        token = self.MTOK
        assert blob_fingerprint("spmm_t", token) \
            != blob_fingerprint("norm", token)
        assert blob_fingerprint("spmm_t", token) \
            == blob_fingerprint("spmm_t", token)


# ---------------------------------------------------------------------------
# 2. protocol: blobs, chains, claims, eviction, degradation
# ---------------------------------------------------------------------------

class TestBlobProtocol:
    def test_publish_fetch_round_trip(self, store):
        arrays = {"data": np.arange(6, dtype=np.float64),
                  "indices": np.arange(6, dtype=np.int32)}
        fp = blob_fingerprint("spmm_t", ("t",))
        assert store.publish_blob(fp, arrays, meta={"shape": [2, 3]})
        fetched = store.fetch_blob(fp)
        assert fetched is not None
        got, meta = fetched
        assert meta == {"shape": [2, 3]}
        for name, array in arrays.items():
            np.testing.assert_array_equal(got[name], array)
            assert not got[name].flags.writeable

    def test_first_publisher_wins(self, store):
        fp = blob_fingerprint("norm", ("n",))
        assert store.publish_blob(fp, {"a": np.ones(3)})
        assert not store.publish_blob(fp, {"a": np.zeros(3)})
        got, _meta = store.fetch_blob(fp)
        np.testing.assert_array_equal(got["a"], np.ones(3))

    def test_refused_publish_reclaims_segment(self, store):
        fp = blob_fingerprint("norm", ("again",))
        store.publish_blob(fp, {"a": np.ones(3)})
        before = _run_files(store)
        assert not store.publish_blob(fp, {"a": np.zeros(3)})
        assert _run_files(store) == before

    def test_unknown_blob_misses(self, store):
        assert store.fetch_blob(blob_fingerprint("norm", ("nope",))) is None

    def test_uncommitted_blob_is_invisible(self, store):
        """Arrays without the metadata file (a publisher killed before
        its commit point) are a miss, and a later publisher completes it."""
        fp = blob_fingerprint("norm", ("half",))
        store.files.put(f"b-{fp}.a", np.ones(3))
        assert store.fetch_blob(fp) is None
        assert store.publish_blob(fp, {"a": np.ones(3)})
        got, _meta = store.fetch_blob(fp)
        np.testing.assert_array_equal(got["a"], np.ones(3))


def _race_publish(handle, fps, barrier, value):
    with serving(handle) as active:
        barrier.wait(timeout=30.0)
        for fp in fps:
            active.publish_blob(fp, {"a": np.full(2048, value)},
                                meta={"by": value})


class TestBlobRace:
    def test_racing_publishers_count_once(self, store):
        """N processes publish the same fingerprints at the same instant:
        each blob is counted exactly once and fetches complete."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = mp.get_context("fork")
        fps = [blob_fingerprint("norm", ("race", n)) for n in range(8)]
        racers = 4
        barrier = ctx.Barrier(racers)
        procs = [ctx.Process(target=_race_publish,
                             args=(store.worker_handle(), fps, barrier,
                                   float(value)))
                 for value in range(racers)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
        assert store.stats()["publishes"] == len(fps)
        assert store.stats()["blobs"] == len(fps)
        for fp in fps:
            got, meta = store.fetch_blob(fp)
            # Whoever won, the array is one racer's whole write, never
            # a torn mix (real publishers of one fingerprint write
            # identical bytes; the racers differ only to show tearing).
            assert got["a"].shape == (2048,)
            assert len(set(got["a"].tolist())) == 1
            assert "by" in meta


class TestChainProtocol:
    FP = chain_fingerprint(((3, 3), 4, "<f8", 1.0), "numpy",
                           ("x", 9, "<f4", 0.5), "monomial_adj", ())

    def _terms(self, count, offset=0):
        return [np.full((3, 2), float(offset + k), dtype=np.float32)
                for k in range(count)]

    def test_claim_publish_serve(self, store):
        served, claimed = store.plan_chain(self.FP, have=0, want=3)
        assert served == [] and claimed
        terms = self._terms(3)
        assert store.publish_terms(self.FP, first_order=1, terms=terms)
        handle = store.worker_handle()
        served, claimed = handle.plan_chain(self.FP, have=0, want=3)
        assert not claimed and len(served) == 3
        for expected, got in zip(terms, served):
            np.testing.assert_array_equal(got, expected)
            assert not got.flags.writeable
        handle.close()

    def test_incremental_extension(self, store):
        store.plan_chain(self.FP, have=0, want=2)
        store.publish_terms(self.FP, first_order=1, terms=self._terms(2))
        served, claimed = store.plan_chain(self.FP, have=2, want=4)
        assert served == [] and claimed, \
            "extension past published depth must claim the remainder"
        assert store.publish_terms(self.FP, first_order=3,
                                   terms=self._terms(2, offset=2))
        served, claimed = store.plan_chain(self.FP, have=0, want=4)
        assert not claimed and len(served) == 4
        np.testing.assert_array_equal(served[3],
                                      np.full((3, 2), 3.0, np.float32))

    def test_stale_offset_publish_refused(self, store):
        """Orders already present are kept, not overwritten: a term's
        bytes depend only on ``(fp, k)``, so the first file stands."""
        store.plan_chain(self.FP, have=0, want=2)
        store.publish_terms(self.FP, first_order=1, terms=self._terms(2))
        before = _run_files(store)
        assert not store.publish_terms(self.FP, first_order=1,
                                       terms=self._terms(2, offset=9))
        assert _run_files(store) == before
        assert store.stats()["publishes"] == 2
        served, _ = store.plan_chain(self.FP, have=0, want=2)
        np.testing.assert_array_equal(served[0],
                                      np.zeros((3, 2), np.float32))

    def test_publish_releases_claim(self, store):
        _, claimed = store.plan_chain(self.FP, have=0, want=2)
        assert claimed and (store.root / f"c-{self.FP}.claim").exists()
        store.publish_terms(self.FP, first_order=1, terms=self._terms(2))
        assert not (store.root / f"c-{self.FP}.claim").exists()

    def test_abandon_claim_releases(self, store):
        _, claimed = store.plan_chain(self.FP, have=0, want=2)
        assert claimed
        store.abandon_claim(self.FP)
        handle = store.worker_handle()
        _, claimed = handle.plan_chain(self.FP, have=0, want=2)
        assert claimed, "abandoned claim must be immediately re-claimable"
        handle.close()

    def test_dead_claimant_adopted(self, store):
        _forge_claim(store, self.FP, _dead_pid())
        telemetry.configure()
        served, claimed = store.plan_chain(self.FP, have=0, want=2)
        assert served == [] and claimed
        assert _counters()["shm.claims.adopted"] == 1

    def test_timed_out_claim_adopted(self, store, monkeypatch):
        """A claim older than CLAIM_TIMEOUT_S is stale even when its
        holder is alive (a hung claimant)."""
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            _forge_claim(store, self.FP, holder.pid)
            monkeypatch.setattr(shm, "CLAIM_TIMEOUT_S", 0.0)
            time.sleep(0.01)
            _, claimed = store.plan_chain(self.FP, have=0, want=2)
            assert claimed
        finally:
            holder.kill()
            holder.wait()

    def test_live_claimant_waiter_times_out(self, store, monkeypatch):
        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"])
        try:
            _forge_claim(store, self.FP, holder.pid)
            monkeypatch.setattr(shm, "WAIT_TIMEOUT_S", 0.05)
            monkeypatch.setattr(shm, "POLL_INTERVAL_S", 0.005)
            handle = store.worker_handle()
            start = time.monotonic()
            served, claimed = handle.plan_chain(self.FP, have=0, want=2)
            assert served == [] and not claimed, \
                "waiter must give up and compute locally, never claim over"
            assert time.monotonic() - start < 5.0
            assert json.loads((store.root / f"c-{self.FP}.claim")
                              .read_text())["pid"] == holder.pid
            handle.close()
        finally:
            holder.kill()
            holder.wait()

    def test_claim_won_after_sibling_published_rescans(self, store,
                                                       monkeypatch):
        """A sibling publishes between this client's scan and its claim:
        the re-scan serves the terms and the claim is released."""
        handle = store.worker_handle()
        terms = self._terms(2)
        real_claim = handle._try_claim

        def publish_then_claim(fp):
            store.publish_terms(fp, first_order=1, terms=terms)
            return real_claim(fp)

        monkeypatch.setattr(handle, "_try_claim", publish_then_claim)
        served, claimed = handle.plan_chain(self.FP, have=0, want=2)
        assert len(served) == 2 and not claimed
        assert not (store.root / f"c-{self.FP}.claim").exists()
        handle.close()


class TestEvictionAndDegradation:
    def test_fifo_eviction_respects_budget(self, store, monkeypatch):
        monkeypatch.setattr(shm, "BUDGET_BYTES", 4096)
        chunk = np.zeros(384, dtype=np.float64)  # 3 KiB each
        first = blob_fingerprint("norm", ("first",))
        second = blob_fingerprint("norm", ("second",))
        assert store.publish_blob(first, {"a": chunk})
        assert store.publish_blob(second, {"a": chunk})
        assert store.fetch_blob(first) is None, \
            "oldest entry must be evicted past the byte budget"
        assert store.fetch_blob(second) is not None, \
            "the entry being published is protected from eviction"
        assert store.stats()["bytes"] <= 4096

    def test_claimed_chain_never_evicted(self, store, monkeypatch):
        fp = TestChainProtocol.FP
        store.plan_chain(fp, have=0, want=1)
        store.files.put(term_name(fp, 1), np.zeros(384))
        monkeypatch.setattr(shm, "BUDGET_BYTES", 1024)
        other = store.worker_handle()
        assert other.publish_blob(blob_fingerprint("norm", ("big",)),
                                  {"a": np.zeros(384)})
        assert (store.root / f"{term_name(fp, 1)}.npy").exists(), \
            "a chain under a claim must survive eviction"
        other.close()

    def test_oserror_degrades_to_local(self, store, monkeypatch):
        telemetry.configure()
        fp = blob_fingerprint("norm", ("refused",))
        for count, code in enumerate((errno.ENOSPC, errno.EACCES), start=1):
            handle = store.worker_handle()

            def refuse(_src, _dst, code=code):
                raise OSError(code, os.strerror(code))

            with monkeypatch.context() as patch:
                patch.setattr(shm.os, "replace", refuse)
                assert not handle.publish_blob(fp, {"a": np.ones(4)})
            assert handle._disabled, \
                "an OSError must disable the client for the session"
            assert _counters()["shm.store.disabled"] == count
            assert not any(name.endswith(".tmp")
                           for name in _run_files(store))
            # Degradation is sticky: the client stays off even once the
            # directory works again — liveness over sharing.
            assert not handle.publish_blob(fp, {"a": np.ones(4)})
            assert handle.fetch_blob(fp) is None
            assert handle.plan_chain(TestChainProtocol.FP, 0, 2) \
                == ([], False)
            handle.close()

    def test_failed_publish_releases_claim(self, store, monkeypatch):
        """A claimant whose publish fails must not leave siblings
        polling a claim held by a live pid."""
        fp = TestChainProtocol.FP
        handle = store.worker_handle()
        _, claimed = handle.plan_chain(fp, have=0, want=2)
        assert claimed

        def full(_src, _dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(shm.os, "replace", full)
            assert not handle.publish_terms(fp, 1, [np.ones(3), np.ones(3)])
        assert not (store.root / f"c-{fp}.claim").exists()
        handle.close()

    def test_vanished_directory_degrades(self):
        store = SharedTermStore()
        handle = store.worker_handle()
        shutil.rmtree(store.root)
        fp = TestChainProtocol.FP
        assert handle.fetch_blob(blob_fingerprint("norm", ("gone",))) is None
        assert handle.plan_chain(fp, have=0, want=2) == ([], False)
        assert handle._disabled
        handle.close()
        assert store.close()["segments_unlinked"] == 0


# ---------------------------------------------------------------------------
# 3. crash safety: lifecycle, leaked-store sweep, cross-process
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_close_unlinks_and_is_idempotent(self):
        store = SharedTermStore()
        store.publish_blob(blob_fingerprint("norm", ("x",)),
                           {"a": np.ones(4)})
        assert _run_segments(store.run_id)
        stats = store.close()
        assert stats["segments_unlinked"] >= 2  # owner + payload files
        assert stats["blobs"] == 1
        assert not _run_segments(store.run_id)
        assert store.close() == stats, "second close must be a no-op"

    def test_worker_handle_pickles_as_path_and_run_id(self, store):
        """A handle is addressing state only, so it crosses any process
        boundary (fork args, spawn pickling) and still finds the files."""
        fp = blob_fingerprint("norm", ("y",))
        store.publish_blob(fp, {"a": np.ones(4)})
        handle = store.worker_handle()
        clone = pickle.loads(pickle.dumps(handle))
        assert (clone.root, clone.run_id) == (store.root, store.run_id)
        got, _meta = clone.fetch_blob(fp)
        np.testing.assert_array_equal(got["a"], np.ones(4))
        clone.close()
        assert store.stats()["hits"] == 1

    def test_store_survives_view_outliving_fetch(self, store):
        fp = blob_fingerprint("norm", ("held",))
        store.publish_blob(fp, {"a": np.arange(8.0)})
        got, _ = store.fetch_blob(fp)
        view = got["a"]  # keep a live view across close
        stats = store.close()
        assert stats["segments_unlinked"] >= 2
        np.testing.assert_array_equal(view, np.arange(8.0)), \
            "POSIX unlink must not invalidate live mappings"

    def test_stats_sum_closed_clients(self, store):
        fp = blob_fingerprint("norm", ("sum",))
        first, second = store.worker_handle(), store.worker_handle()
        first.publish_blob(fp, {"a": np.ones(4)})
        second.fetch_blob(fp)
        second.fetch_blob(fp)
        first.close()
        second.close()
        second.close()  # a closed client reports nothing twice
        stats = store.stats()
        assert (stats["publishes"], stats["hits"]) == (1, 2)
        assert stats["peak_bytes"] == stats["bytes"] > 0


class TestLeakedSegmentSweep:
    def test_dead_owner_group_reaped(self):
        store = SharedTermStore()
        store.publish_blob(blob_fingerprint("norm", ("leak",)),
                           {"a": np.ones(16)})
        (store.root / "owner").write_text(str(_dead_pid()))
        assert sweep_leaked_segments() >= 2
        assert not _run_segments(store.run_id)

    def test_orphan_data_segment_reaped(self):
        """A directory with no readable ``owner`` is wreckage — but only
        once it has sat idle, so a store being born is never swept."""
        path = os.path.join("/dev/shm", f"{shm.SEGMENT_PREFIX}deadbeef")
        os.mkdir(path)
        try:
            with open(os.path.join(path, "c-0.1.npy"), "wb") as handle:
                handle.write(b"orphan")
            sweep_leaked_segments()
            assert _run_segments("deadbeef"), \
                "a fresh ownerless directory must survive the sweep"
            assert sweep_leaked_segments(max_age_s=0.0) >= 1
            assert not _run_segments("deadbeef")
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_live_store_never_swept(self, store):
        store.publish_blob(blob_fingerprint("norm", ("live",)),
                           {"a": np.ones(4)})
        sweep_leaked_segments(max_age_s=0.0)
        assert _run_segments(store.run_id), \
            "a store with a live owner must survive the sweep"


def _child_roundtrip(handle, fp_in, fp_out, conn):
    """Fork-child: fetch the parent's blob, publish one back."""
    try:
        with serving(handle) as active:
            got, _meta = active.fetch_blob(fp_in)
            value = np.asarray(got["a"]).copy()
            active.publish_blob(fp_out, {"b": value * 2.0})
        conn.send(value.tolist())
    except Exception as exc:  # pragma: no cover - surfaced by the parent
        conn.send(f"error: {exc}")
    finally:
        conn.close()


def _killed_mid_save(handle, fp, conn):
    """Fork-child: claim a chain, then hang inside ``np.save`` with the
    scratch file half written — the instant a SIGKILL is worst."""
    def stuck_save(file, array):
        file.write(b"\x93NUMPY-torn")
        file.flush()
        conn.send("mid-save")
        time.sleep(300)

    np.save = stuck_save
    _, claimed = handle.plan_chain(fp, have=0, want=2)
    assert claimed
    handle.publish_terms(fp, 1, [np.ones((3, 2)), np.ones((3, 2))])


def _precompute_cell(name, seed):
    graph = _random_graph(40, seed=seed)
    x = np.asarray(graph.features, dtype=np.float32)
    filter_ = make_filter(name, num_hops=6, num_features=x.shape[1])
    return filter_.precompute(graph, x, rho=0.5).tobytes()


def _switches_cell():
    config = context.current().config
    return config.plan, config.cache


class TestCrossProcess:
    def test_fork_child_fetches_and_publishes(self, store):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        fp_in = blob_fingerprint("norm", ("parent",))
        fp_out = blob_fingerprint("norm", ("child",))
        payload = np.arange(5.0)
        assert store.publish_blob(fp_in, {"a": payload})
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_child_roundtrip,
                           args=(store.worker_handle(), fp_in, fp_out,
                                 child_conn))
        proc.start()
        child_conn.close()
        assert parent_conn.poll(30.0), "fork child never reported"
        result = parent_conn.recv()
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
        assert result == payload.tolist()
        got, _meta = store.fetch_blob(fp_out)
        np.testing.assert_array_equal(got["b"], payload * 2.0)

    def test_publisher_killed_mid_save_is_adopted(self, store, monkeypatch):
        """SIGKILL mid-``np.save``: only a scratch file and a dead claim
        remain; readers miss, the next claimant adopts without waiting,
        and close leaves nothing behind (the fixture asserts that)."""
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        fp = TestChainProtocol.FP
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_killed_mid_save,
                           args=(store.worker_handle(), fp, child_conn))
        proc.start()
        child_conn.close()
        assert parent_conn.poll(30.0), "victim never reached np.save"
        assert parent_conn.recv() == "mid-save"
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30.0)
        assert proc.exitcode == -signal.SIGKILL
        names = _run_files(store)
        assert any(name.endswith(".tmp") for name in names)
        assert not any(name.endswith(".npy") for name in names)
        monkeypatch.setattr(shm, "WAIT_TIMEOUT_S", 5.0)
        telemetry.configure()
        start = time.monotonic()
        served, claimed = store.plan_chain(fp, have=0, want=2)
        assert served == [] and claimed, "dead claim must be adopted"
        assert time.monotonic() - start < 1.0, "adoption must not wait"
        assert _counters()["shm.claims.adopted"] == 1
        assert store.publish_terms(fp, 1, [np.ones((3, 2))] * 2)

    def test_spawn_pool_shares_terms(self):
        """A handle pickles, so ``spawn`` workers share too."""
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("spawn start method unavailable")
        cells = [Cell(key=(index,), fn=_precompute_cell,
                      kwargs={"name": "monomial", "seed": 5})
                 for index in range(4)]
        expected = _precompute_cell("monomial", 5)
        store = SharedTermStore()
        with shm.store_scope(store):
            results = execute_cells(
                cells, PoolConfig(workers=2, start_method="spawn"))
        assert [result.value for result in results] == [expected] * 4
        stats = store.stats()
        assert stats["publishes"] > 0 and stats["hits"] > 0, stats
        assert not _run_segments(store.run_id)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_workers_honour_no_plan_and_no_cache(self, start_method):
        """``--no-plan`` / ``--no-cache`` live on the run context, which
        the pool ships whole: a ``spawn`` worker inherits nothing."""
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        cells = [Cell(key=(index,), fn=_switches_cell, kwargs={})
                 for index in range(2)]
        pool = PoolConfig(workers=2, start_method=start_method)
        with context.using(plan=False, cache=False):
            off = execute_cells(cells, pool)
        on = execute_cells(cells, pool)
        assert [result.value for result in off] == [(False, False)] * 2
        assert [result.value for result in on] == [(True, True)] * 2


# ---------------------------------------------------------------------------
# 4. invisibility: planner/cache integration across the taxonomy
# ---------------------------------------------------------------------------

def _random_graph(n: int, seed: int, num_features: int = 3) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = max(2 * n, 1)
    edges = np.stack([rng.integers(0, n, size=num_edges),
                      rng.integers(0, n, size=num_edges)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]]) if n > 1 else np.zeros((0, 2), int)
    features = rng.normal(size=(n, num_features)).astype(np.float32)
    return Graph.from_edges(n, edges, features=features, name=f"rand{seed}")


def _shared_vs_local(name: str, graph: Graph, num_hops: int, rho: float):
    """(local bytes, publisher-pass bytes, served-pass bytes)."""
    x = np.asarray(graph.features, dtype=np.float32)
    filter_ = make_filter(name, num_hops=num_hops, num_features=x.shape[1])
    with plan.plan_scope(fresh=True):
        local = filter_.precompute(graph, x, rho=rho)
    store = SharedTermStore()
    try:
        with serving(store.worker_handle()):
            # Fresh plan scopes per pass model isolated pool workers:
            # pass 1 computes and publishes, pass 2 must be served the
            # same bytes from shared memory.
            with plan.plan_scope(fresh=True):
                published = filter_.precompute(graph, x, rho=rho)
            with plan.plan_scope(fresh=True):
                served = filter_.precompute(graph, x, rho=rho)
    finally:
        stats = store.close()
    return local, published, served, stats


class TestSharedStoreInvisibility:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_taxonomy_byte_identity(self, name):
        """Shared-store on/off is invisible for all 27 filters."""
        graph = _random_graph(24, seed=11)
        local, published, served, _stats = _shared_vs_local(
            name, graph, num_hops=6, rho=0.5)
        assert local.tobytes() == published.tobytes(), name
        assert local.tobytes() == served.tobytes(), name

    def test_second_pass_is_served_from_shared_memory(self):
        graph = _random_graph(24, seed=13)
        _local, _pub, _served, stats = _shared_vs_local(
            "monomial", graph, num_hops=6, rho=0.5)
        assert stats["publishes"] > 0, "first pass must publish its chain"
        assert stats["hits"] > 0, "second pass must hit the shared chain"

    @given(seed=st.integers(0, 40), num_hops=st.integers(1, 7),
           rho=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           name=st.sampled_from(["monomial", "ppr", "hk", "gaussian",
                                 "horner", "chebyshev", "clenshaw",
                                 "legendre", "jacobi", "fbgnn2", "fagnn"]))
    @settings(max_examples=15, deadline=None)
    def test_shared_on_off_byte_identity_property(self, seed, num_hops,
                                                  rho, name):
        """Random graph/order/ρ across every chain family: identical."""
        graph = _random_graph(12 + seed % 9, seed=seed)
        local, published, served, _stats = _shared_vs_local(
            name, graph, num_hops=num_hops, rho=rho)
        assert local.tobytes() == published.tobytes(), name
        assert local.tobytes() == served.tobytes(), name


def _publish_chain(store, filter_, graph, x):
    with serving(store.worker_handle()), \
            plan.plan_scope(fresh=True) as planner:
        out = filter_.precompute(graph, x, rho=0.5)
        return out, planner.stats()["terms_computed"]


class TestAnySubsetIsValid:
    @given(seed=st.integers(0, 40), num_hops=st.integers(2, 7),
           filter_name=st.sampled_from(["monomial", "chebyshev", "jacobi",
                                        "gaussian", "horner"]),
           data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_deleted_files_are_recomputed_identically(self, seed, num_hops,
                                                      filter_name, data):
        """Delete an arbitrary subset of a published chain's files: the
        planner's output is byte-identical, it recomputes only from the
        first gap on, and exactly the deleted files are re-published."""
        graph = _random_graph(12 + seed % 9, seed=seed)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter(filter_name, num_hops=num_hops,
                              num_features=x.shape[1])
        store = SharedTermStore()
        try:
            expected, computed = _publish_chain(store, filter_, graph, x)
            terms = sorted(name for name in _run_files(store)
                           if name.startswith("c-")
                           and name.endswith(".npy"))
            assert len(terms) == computed > 0
            doomed = data.draw(st.sets(st.sampled_from(terms)))
            first_gap = {}
            for name in doomed:
                os.unlink(store.root / name)
                chain, order = name.split(".")[:2]
                first_gap[chain] = min(first_gap.get(chain, int(order)),
                                       int(order))
            # A reader takes the leading run: everything from a chain's
            # first gap on is recomputed, present or not.
            lost = sum(1 for name in terms
                       if int(name.split(".")[1])
                       >= first_gap.get(name.split(".")[0], np.inf))
            published = store.stats()["publishes"]
            again, recomputed = _publish_chain(store, filter_, graph, x)
            assert again.tobytes() == expected.tobytes()
            assert recomputed == lost
            assert store.stats()["publishes"] - published == len(doomed)
            assert set(terms) <= _run_files(store)
        finally:
            store.close()


class TestFaultsAreInvisible:
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    @pytest.mark.parametrize("name", ["chebyshev", "ppr"])
    def test_failed_publish_keeps_canonical_payload(self, name, code,
                                                    monkeypatch):
        graph = _random_graph(24, seed=17)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter(name, num_hops=6, num_features=x.shape[1])
        with plan.plan_scope(fresh=True):
            expected = filter_.precompute(graph, x, rho=0.5)

        def refuse(_src, _dst):
            raise OSError(code, os.strerror(code))

        telemetry.configure()
        store = SharedTermStore()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(shm.os, "replace", refuse)
                faulted, _ = _publish_chain(store, filter_, graph, x)
            healthy, _ = _publish_chain(store, filter_, graph, x)
            leftovers = _run_files(store) - {"owner", "stats"}
        finally:
            stats = store.close()
        assert faulted.tobytes() == expected.tobytes()
        assert healthy.tobytes() == expected.tobytes()
        assert _counters()["shm.store.disabled"] == 1
        assert stats["publishes"] > 0, \
            "a fresh client must share again once the fault is gone"
        assert not any(name.endswith((".tmp", ".claim"))
                       for name in leftovers), leftovers

    def test_removed_directory_keeps_canonical_payload(self):
        graph = _random_graph(24, seed=19)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter("monomial", num_hops=6,
                              num_features=x.shape[1])
        with plan.plan_scope(fresh=True):
            expected = filter_.precompute(graph, x, rho=0.5)
        store = SharedTermStore()
        shutil.rmtree(store.root)
        got, _ = _publish_chain(store, filter_, graph, x)
        assert got.tobytes() == expected.tobytes()
        assert not _run_segments(store.run_id)
        store.close()


class TestCsrBlobIntegration:
    def _csr(self, seed=0, n=12):
        rng = np.random.default_rng(seed)
        matrix = sp.random(n, n, density=0.3, random_state=rng,
                           format="csr", dtype=np.float64)
        matrix.sort_indices()
        return matrix

    def test_shared_csr_round_trip(self, store):
        matrix = self._csr()
        parts = (cache.matrix_token(matrix),)

        def never():
            raise AssertionError("a published blob must be served")

        with serving(store.worker_handle()):
            built = cache.shared_csr("spmm_t", parts, lambda: matrix)
            fetched = cache.shared_csr("spmm_t", parts, never)
        assert built is matrix
        assert (fetched != matrix).nnz == 0
        assert fetched.has_sorted_indices
        assert not fetched.data.flags.writeable

    def test_shared_csr_without_store_just_builds(self):
        matrix = self._csr(seed=1)
        assert cache.shared_csr("spmm_t", ("unshared",),
                                lambda: matrix) is matrix

    def test_transpose_routes_through_store(self, store):
        matrix = self._csr(seed=3)
        with serving(store.worker_handle()):
            cache.clear_transpose_cache()
            first = cache.transpose_csr(matrix)
            assert cache.transpose_build_count() == 1
            # A cold local cache (clear also zeroes the build counter)
            # must now be served the shared blob, not rebuild.
            cache.clear_transpose_cache()
            second = cache.transpose_csr(matrix)
            assert cache.transpose_build_count() == 0
        assert (first != second).nnz == 0
        assert store.stats()["hits"] >= 1

    def test_normalization_routes_through_store(self, store):
        edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        with serving(store.worker_handle()):
            first = Graph.from_edges(4, edges.copy(),
                                     name="n1").normalized_adjacency()
            second = Graph.from_edges(4, edges.copy(),
                                      name="n2").normalized_adjacency()
        assert (first != second).nnz == 0
        stats = store.stats()
        assert stats["blobs"] >= 1 and stats["hits"] >= 1, \
            "identical graphs must share one normalization blob"

    def test_blob_names_bind_the_whole_operator(self, store):
        # Same n, same nnz, all-ones data: one sampled token, two graphs.
        ring = Graph.from_edges(6, np.array([[i, (i + 1) % 6]
                                             for i in range(6)]))
        triangles = Graph.from_edges(6, np.array(
            [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]))
        assert cache.matrix_token(ring.adjacency) \
            == cache.matrix_token(triangles.adjacency)
        with shm.store_scope(store), serving(store.worker_handle()):
            ring.normalized_adjacency()
            served = triangles.normalized_adjacency()
        with context.using(cache=False):
            expected = triangles.normalized_adjacency()
        assert (served != expected).nnz == 0

        # The transpose blob too: two directed 3-cycles, one token.
        forward = sp.csr_matrix((np.ones(3), ([0, 1, 2], [1, 2, 0])),
                                shape=(3, 3))
        backward = sp.csr_matrix((np.ones(3), ([0, 1, 2], [2, 0, 1])),
                                 shape=(3, 3))
        other = SharedTermStore()
        with serving(other.worker_handle()):
            cache.transpose_csr(forward)
            served = cache.transpose_csr(backward)
        other.close()
        assert (served != backward.T).nnz == 0

    def test_symmetric_operator_publishes_no_transpose(self, store):
        operator = Graph.from_edges(
            4, np.array([[0, 1], [1, 2], [2, 3]])).normalized_adjacency()
        with serving(store.worker_handle()):
            cache.clear_transpose_cache()
            assert cache.transpose_csr(operator) is operator
        assert store.stats()["blobs"] == 0


def _graph_digest(graph: Graph) -> str:
    digest = hashlib.sha256(graph.name.encode())
    for array in (graph.adjacency.data, graph.adjacency.indices,
                  graph.adjacency.indptr, graph.features, graph.labels):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.fixture()
def graph_memo():
    """An empty sweep graph memo, emptied again afterwards so no
    store-backed graph leaks into later tests."""
    experiments._GRAPH_MEMO.clear()
    yield experiments._GRAPH_MEMO
    experiments._GRAPH_MEMO.clear()


@pytest.fixture()
def syntheses(monkeypatch):
    """Records each ``(name, scale, seed)`` the sweep memo synthesizes."""
    calls = []
    real = experiments.synthesize

    def counted(spec, scale, seed):
        calls.append((spec.name, scale, seed))
        return real(spec, scale=scale, seed=seed)

    monkeypatch.setattr(experiments, "synthesize", counted)
    return calls


#: The grid below: two S datasets at their default scale, graph seed 2.
GRID_DATASETS, GRID_SCALE, GRID_SEED = ("cora", "chameleon"), 0.25, 2


def _mb_grid(pool=None):
    config = TrainConfig(epochs=2, patience=0, eval_every=10 ** 9)
    return experiments.efficiency_experiment(
        GRID_DATASETS, filters=("ppr", "chebyshev"), schemes=("mini_batch",),
        config=config, seed=GRID_SEED, pool=pool)


def _graph_fp(name: str) -> str:
    return blob_fingerprint("graph", name, GRID_SCALE, GRID_SEED)


class TestGraphBlob:
    """The sweep graph memo's miss path reads the shared store first."""

    SCALE = 0.1

    def test_memo_key_resolves_the_default_scale(self, graph_memo):
        default = experiments.DEFAULT_SCALES[get_spec("cora").scale_class]
        assert experiments._memo_load("cora", None, 0) \
            is experiments._memo_load("cora", default, 0)
        assert len(graph_memo) == 1

    def test_served_from_the_store(self, store, graph_memo, monkeypatch):
        expected = _graph_digest(experiments.load_dataset("cora", self.SCALE))
        with serving(store.worker_handle()):
            published = experiments._memo_load("cora", self.SCALE, 0)
            graph_memo.clear()

            def never(*_args, **_kwargs):
                raise AssertionError("a published graph must be served")

            monkeypatch.setattr(experiments, "synthesize", never)
            served = experiments._memo_load("cora", self.SCALE, 0)
        assert served is not published
        assert _graph_digest(published) == _graph_digest(served) == expected
        assert not served.features.flags.writeable
        assert not served.labels.flags.writeable
        assert served.adjacency.data.flags.writeable, \
            "the constructor copies the adjacency"
        assert store.stats()["hits"] == 1

    def test_other_seed_or_scale_misses(self, store, graph_memo, syntheses):
        with serving(store.worker_handle()):
            experiments._memo_load("cora", self.SCALE, 0)
            graph_memo.clear()
            experiments._memo_load("cora", self.SCALE, 0)
            experiments._memo_load("cora", self.SCALE, 1)
            experiments._memo_load("cora", 0.2, 0)
        assert syntheses == [("cora", self.SCALE, 0), ("cora", self.SCALE, 1),
                             ("cora", 0.2, 0)]

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_grid_matches_inline(self, graph_memo, start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} start method unavailable")
        inline = canonical_payload(_mb_grid())
        graph_memo.clear()  # a fork must not inherit the inline graphs
        store = SharedTermStore()
        with shm.store_scope(store):
            rows = _mb_grid(PoolConfig(workers=2, start_method=start_method))
            for name in GRID_DATASETS:
                assert store.fetch_blob(_graph_fp(name)) is not None, name
        assert canonical_payload(rows) == inline
        assert all(row["status"] == "ok" for row in rows)

    def test_failed_graph_publish_keeps_rows(self, graph_memo, monkeypatch):
        inline = canonical_payload(_mb_grid())
        graph_memo.clear()

        def full(_src, _dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        telemetry.configure()
        store = SharedTermStore()
        try:
            with serving(store.worker_handle()), \
                    monkeypatch.context() as patch:
                patch.setattr(shm.os, "replace", full)
                rows = _mb_grid()
            assert store.fetch_blob(_graph_fp("cora")) is None
        finally:
            store.close()
        assert canonical_payload(rows) == inline
        assert _counters()["shm.store.disabled"] == 1


class TestScopes:
    def test_store_scope_installs_and_closes(self):
        store = SharedTermStore()
        with shm.store_scope(store) as active:
            assert context.current().store is active
        assert context.current().store is None
        assert not _run_segments(store.run_id), \
            "scope exit must close the store"

    def test_worker_scope_none_passthrough(self):
        with serving(None) as handle:
            assert handle is None
            assert context.current().active_handle is None
        assert context.current().active_handle is None

    def test_no_cache_disables_active_handle(self, store):
        with serving(store.worker_handle()) as handle:
            assert context.current().active_handle is handle
            with context.using(cache=False):
                assert context.current().active_handle is None, \
                    "--no-cache must turn the shared store off too"
            assert context.current().active_handle is handle
