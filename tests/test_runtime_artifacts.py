"""Content-addressed cell artifact store (:mod:`repro.runtime.artifacts`).

The store is a correctness-critical cache: a hit substitutes bytes a live
execution would have produced. The suite therefore leans on invariants,
not examples — round trips are exact, any change to config / seed /
coordinates / code rev flips the content address (staleness), torn files
read as misses, and (hypothesis) a sweep resumed from any interruption
point is byte-identical to an uninterrupted one across worker counts.
"""

from __future__ import annotations

import errno
import json
import multiprocessing as mp
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.bench.io import canonical_payload
from repro.runtime.artifacts import (
    ArtifactStore,
    CellArtifact,
    SweepArtifacts,
    active_sweep,
    cell_address,
    default_artifact_dir,
    default_code_rev,
    sweep_scope,
)
from repro.runtime.pool import Cell, PoolConfig, derive_cell_seed, execute_cells


def _value_cell(x, seed=0):
    rng = np.random.default_rng(seed)
    return {"x": x, "seed": seed,
            "score": float(rng.normal()),
            "hist": rng.integers(0, 10, size=4)}


def _make_cells(count, root_seed=0):
    return [Cell(key=("cell", i), fn=_value_cell,
                 kwargs={"x": i, "seed": derive_cell_seed(root_seed,
                                                          "cell", i)})
            for i in range(count)]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.shutdown()
    yield
    telemetry.shutdown()


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _sweep(store, fingerprint="fp", rev="rev1", consult=True):
    return SweepArtifacts(store=store, config_fingerprint=fingerprint,
                          code_rev=rev, consult=consult)


# ---------------------------------------------------------------------------
# directory resolution
# ---------------------------------------------------------------------------

class TestDefaultDir:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "env"))
        assert default_artifact_dir(tmp_path / "x") == tmp_path / "x"
        assert default_artifact_dir() == tmp_path / "env"

    def test_code_rev_is_stable_and_nonempty(self):
        assert default_code_rev() == default_code_rev()
        assert default_code_rev()


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

class TestRoundTrip:
    def test_value_events_metrics_survive(self, store):
        value = {"acc": np.float32(0.75), "hist": np.arange(3),
                 "nested": {"k": [1, 2.5, "s", None]}}
        events = [{"type": "span", "id": 1, "name": "cell", "depth": 0}]
        metrics = {"counters": {"ops.matmul.calls": 3.0}}
        address = "a" * 64
        store.put(address, value, events=events, metrics_state=metrics,
                  meta={"cell": "cell/0"})

        artifact = store.get(address)
        assert isinstance(artifact, CellArtifact)
        assert artifact.value["acc"] == 0.75
        np.testing.assert_array_equal(artifact.value["hist"], np.arange(3))
        assert artifact.value["nested"] == {"k": [1, 2.5, "s", None]}
        assert artifact.events == events
        assert artifact.metrics_state == metrics
        assert artifact.meta["cell"] == "cell/0"
        assert store.stats()["hit"] == 1 and store.stats()["stored"] == 1

    def test_value_key_order_is_preserved(self, store):
        value = {"zeta": 1, "alpha": 2, "mid": 3}
        store.put("b" * 64, value)
        assert list(store.get("b" * 64).value) == ["zeta", "alpha", "mid"], \
            "cached rows must decode in live insertion order"

    def test_missing_address_is_a_miss(self, store):
        assert store.get("c" * 64) is None
        assert store.stats()["miss"] == 1

    def test_canonical_payload_identity_through_store(self, store):
        rows = [_value_cell(i, seed=derive_cell_seed(0, i)) for i in range(3)]
        store.put("d" * 64, rows)
        assert canonical_payload(store.get("d" * 64).value) \
            == canonical_payload(rows)


# ---------------------------------------------------------------------------
# durability: atomic write, torn files, refused writes
# ---------------------------------------------------------------------------

class TestDurability:
    def test_torn_payload_reads_as_miss_and_is_dropped(self, store):
        address = "e" * 64
        store.put(address, {"v": 1})
        path = store.payload_path(address)
        path.write_text(path.read_text()[:15])  # truncated mid-write
        assert store.get(address) is None
        assert store.torn == 1
        assert not path.exists(), "a torn payload must be swept"
        store.put(address, {"v": 1})
        assert store.get(address).value == {"v": 1}

    def test_schema_or_address_mismatch_is_a_miss(self, store):
        address = "f" * 64
        store.put(address, {"v": 1})
        payload = json.loads(store.payload_path(address).read_text())
        payload["schema"] = "repro.runtime.artifacts/v999"
        store.payload_path(address).write_text(json.dumps(payload))
        assert store.get(address) is None

        store.put(address, {"v": 1})
        payload = json.loads(store.payload_path(address).read_text())
        payload["address"] = "0" * 64
        store.payload_path(address).write_text(json.dumps(payload))
        assert store.get(address) is None

    def test_tmp_files_never_read_as_artifacts(self, store):
        store.put("2" * 64, {"v": 1})
        stray = store.root / f"{'3' * 64}.json.tmp.{os.getpid()}"
        stray.write_text("{")
        assert store.addresses() == ["2" * 64]

    @pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    def test_refused_write_skips_the_cell(self, store, code, workers,
                                          monkeypatch):
        """A store directory that refuses the write costs persistence,
        never the sweep: the rows are the fault-free ones, each cell is
        counted unstorable, and no file (not even a scratch file) stays."""
        if workers > 1 and "fork" not in mp.get_all_start_methods():
            pytest.skip("needs the fork start method")
        cells = _make_cells(2)
        config = PoolConfig(workers=workers, start_method="fork")
        expected = canonical_payload(
            [r.value for r in execute_cells(cells, config)])

        def refuse(_src, _dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "replace", refuse)
        telemetry.configure()
        try:
            with sweep_scope(_sweep(store)):
                results = execute_cells(cells, config)
            counters = telemetry.get_metrics().to_state()["counters"]
        finally:
            telemetry.shutdown()
        assert [r.status for r in results] == ["ok", "ok"]
        assert canonical_payload([r.value for r in results]) == expected
        assert counters.get("artifacts.unstorable") == 2
        assert "artifacts.store" not in counters
        assert list(store.root.glob("*")) == []

    def test_put_is_atomic_replace(self, store):
        address = "4" * 64
        store.put(address, {"v": 1})
        store.put(address, {"v": 2})
        assert store.get(address).value == {"v": 2}
        assert len(store) == 1


# ---------------------------------------------------------------------------
# content-address staleness: every component flips the key
# ---------------------------------------------------------------------------

class TestAddressSensitivity:
    BASE = dict(config_fingerprint="fp-a", coordinates=("cora", "ppr", 0),
                seed=123, code_rev="rev-a", cell_token="tok-a")

    def test_deterministic(self):
        assert cell_address(**self.BASE) == cell_address(**self.BASE)
        assert len(cell_address(**self.BASE)) == 64

    @pytest.mark.parametrize("field,changed", [
        ("config_fingerprint", "fp-b"),
        ("coordinates", ("cora", "ppr", 1)),
        ("seed", 124),
        ("code_rev", "rev-b"),
        ("cell_token", "tok-b"),
    ])
    def test_each_component_flips_the_address(self, field, changed):
        assert cell_address(**{**self.BASE, field: changed}) \
            != cell_address(**self.BASE), field

    def test_sweep_staleness_config_seed_coords_rev_kwargs(self, store):
        cell = Cell(key=("cora", "ppr"), fn=_value_cell,
                    kwargs={"x": 1, "seed": 7})
        base = _sweep(store).address_for(cell)

        assert _sweep(store, fingerprint="fp2").address_for(cell) != base
        assert _sweep(store, rev="rev2").address_for(cell) != base
        other_coords = Cell(key=("cora", "chebyshev"), fn=cell.fn,
                            kwargs=cell.kwargs)
        assert _sweep(store).address_for(other_coords) != base
        other_seed = Cell(key=cell.key, fn=cell.fn,
                          kwargs={"x": 1, "seed": 8})
        assert _sweep(store).address_for(other_seed) != base
        # Knobs outside the run config but inside kwargs (scale_override
        # and friends) must miss too.
        other_kwargs = Cell(key=cell.key, fn=cell.fn,
                            kwargs={"x": 2, "seed": 7})
        assert _sweep(store).address_for(other_kwargs) != base

    def test_stale_store_reexecutes_on_new_rev(self, store):
        cells = _make_cells(2)
        with sweep_scope(_sweep(store, rev="rev1")):
            execute_cells(cells, PoolConfig(workers=1))
        new_rev = _sweep(ArtifactStore(store.root), rev="rev2")
        with sweep_scope(new_rev):
            results = execute_cells(cells, PoolConfig(workers=1))
        assert all(r.status == "ok" for r in results), \
            "new code must never trust old bytes"
        assert new_rev.store.hits == 0 and new_rev.store.misses == 2


# ---------------------------------------------------------------------------
# purge (--fresh)
# ---------------------------------------------------------------------------

class TestEvictionAndPurge:
    def test_purge_drops_everything_and_strays(self, store):
        for c in "ab":
            store.put(c * 64, {"v": c})
        (store.root / "crashed.tmp").write_text("{")  # scratch file
        (store.root / f"{'d' * 64}.meta.json").write_text("{}")  # stray
        assert store.purge() == 2
        assert len(store) == 0
        assert list(store.root.iterdir()) == []

    def test_purge_on_missing_dir_is_a_noop(self, tmp_path):
        assert ArtifactStore(tmp_path / "never-created").purge() == 0

    def test_unstorable_value_is_skipped_not_fatal(self, store):
        telemetry.configure()
        try:
            sweep = _sweep(store)
            cell = Cell(key=("bad",), fn=_value_cell, kwargs={"x": 0})
            assert sweep.save(cell, {"obj": object()}) is None
            counters = telemetry.get_metrics().to_state()["counters"]
        finally:
            telemetry.shutdown()
        assert len(store) == 0
        assert counters.get("artifacts.unstorable") == 1


# ---------------------------------------------------------------------------
# scope semantics
# ---------------------------------------------------------------------------

class TestSweepScope:
    def test_nesting_restores_previous(self, store):
        outer, inner = _sweep(store), _sweep(store, fingerprint="fp-inner")
        assert active_sweep() is None
        with sweep_scope(outer):
            assert active_sweep() is outer
            with sweep_scope(inner):
                assert active_sweep() is inner
            assert active_sweep() is outer
        assert active_sweep() is None

    def test_none_scope_disables_the_store(self, store):
        with sweep_scope(_sweep(store)):
            with sweep_scope(None):
                results = execute_cells(_make_cells(1),
                                        PoolConfig(workers=1))
        assert results[0].status == "ok"
        assert len(store) == 0


# ---------------------------------------------------------------------------
# hypothesis: resumed == uninterrupted, byte for byte
# ---------------------------------------------------------------------------

class TestResumeByteIdentity:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cell_count=st.integers(min_value=1, max_value=5),
           interrupt_after=st.integers(min_value=0, max_value=5),
           workers=st.sampled_from([1, 2]),
           root_seed=st.integers(min_value=0, max_value=3))
    def test_any_interruption_point_resumes_byte_identical(
            self, tmp_path_factory, cell_count, interrupt_after, workers,
            root_seed):
        """Simulate a crash after K committed cells: populate the store,
        drop all but the first K artifacts, resume, and require the
        resumed sweep's canonical payload to equal an uninterrupted
        run's bytes — for every (grid size, K, worker count, seed)."""
        tmp_path = tmp_path_factory.mktemp("resume")
        cells = _make_cells(cell_count, root_seed=root_seed)
        config = PoolConfig(workers=workers)
        keep = min(interrupt_after, cell_count)

        uninterrupted = execute_cells(cells, config)

        first = _sweep(ArtifactStore(tmp_path / "store"))
        with sweep_scope(first):
            execute_cells(cells, config)
        committed = {first.address_for(cell) for cell in cells[:keep]}
        for address in first.store.addresses():
            if address not in committed:
                first.store.discard(address)

        resumed_sweep = _sweep(ArtifactStore(tmp_path / "store"))
        with sweep_scope(resumed_sweep):
            resumed = execute_cells(cells, config)

        assert sum(1 for r in resumed if r.status == "cached") == keep
        assert sum(1 for r in resumed if r.status == "ok") \
            == cell_count - keep
        assert canonical_payload([r.value for r in resumed]) \
            == canonical_payload([r.value for r in uninterrupted])
