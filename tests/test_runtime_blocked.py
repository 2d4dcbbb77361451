"""The blocked tier must be *invisible* — and must actually go out of core.

`repro.runtime.blocked` tiles CSR spmm against a RAM budget and lets the
basis planner spill whole term matrices to mmap-backed files. Contracts:

1. **Bit-identity** (hypothesis + taxonomy sweep): tiled spmm — on one
   thread or several, with or without a tier — and blocked-tier
   precompute are byte-for-byte identical to the in-core path — the same
   contract the planner and every cache already hold.
2. **Spill round-trip**: a planner chain evicted under a tiny term
   budget lands in the spill directory and is served back bit-identical as a
   read-only memmap, with ``plan.terms.spill`` / ``plan.terms.spill_load``
   traffic on the counters.
3. **Budget tuning**: ``choose_block_rows`` respects its bounds. (The
   spill directory's file mechanics are the file tier's, tested in
   ``tests/test_runtime_files.py``.)
4. **GP integration**: graph-partition training reports cut-edge
   accounting and OOMs exactly when the largest cluster cannot fit.
"""

from __future__ import annotations

import errno
import os
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor, spmm
from repro.datasets.splits import random_split
from repro.filters.base import PropagationContext
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.runtime import blocked, context, plan
from repro.runtime.blocked import (
    BlockedTier,
    blocked_spmm,
    choose_block_rows,
    default_ram_budget,
    row_tiles,
    spmm_csr,
)
from repro.runtime.device import DeviceModel
from repro.training.loop import TrainConfig
from repro.training.schemes import GraphPartitionTrainer


def blocked_scope(ram_budget_bytes, spill_dir=None):
    """A run with the blocked tier on — what ``--blocked --ram-budget``
    opens; the tier is closed (spill files purged) on exit."""
    return context.RunConfig(
        blocked=True, ram_budget_mib=ram_budget_bytes / 2 ** 20,
        spill_dir=None if spill_dir is None else str(spill_dir)).open()


def _random_graph(n: int, seed: int, num_features: int = 4) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = max(2 * n, 1)
    edges = np.stack([rng.integers(0, n, size=num_edges),
                      rng.integers(0, n, size=num_edges)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]]) if n > 1 else np.zeros((0, 2), int)
    features = rng.normal(size=(n, num_features)).astype(np.float32)
    labels = rng.integers(0, 3, size=n)
    return Graph.from_edges(n, edges, features=features, labels=labels,
                            name=f"rand{seed}")


def _random_csr(n: int, width: int, seed: int):
    rng = np.random.default_rng(seed)
    csr = sp.random(n, n, density=min(1.0, 4.0 / max(n, 1)), format="csr",
                    random_state=np.random.RandomState(seed),
                    dtype=np.float64)
    dense = rng.normal(size=(n, width))
    return csr, dense


# ----------------------------------------------------------------------
# 1. bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @given(n=st.integers(1, 60), width=st.integers(1, 5),
           block_rows=st.integers(1, 70), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_blocked_spmm_equals_oneshot(self, n, width, block_rows, seed):
        csr, dense = _random_csr(n, width, seed)
        expected = np.asarray(csr @ dense)
        tiled = blocked_spmm(csr, dense, block_rows)
        assert expected.tobytes() == tiled.tobytes()

    def test_blocked_spmm_into_out(self):
        csr, dense = _random_csr(20, 3, 5)
        out = np.empty((20, 3), dtype=np.float64)
        result = blocked_spmm(csr, dense, 7, out=out)
        assert result is out
        assert out.tobytes() == np.asarray(csr @ dense).tobytes()

    def test_spmm_csr_without_scope_is_plain(self):
        csr, dense = _random_csr(15, 2, 9)
        assert context.current().tier is None
        assert spmm_csr(csr, dense).tobytes() == \
            np.asarray(csr @ dense).tobytes()

    @given(n=st.integers(0, 40), density=st.sampled_from([0.0, 0.05, 0.3]),
           width=st.sampled_from([None, 1, 3]),
           dtypes=st.sampled_from([(np.float32, np.float32),
                                   (np.float64, np.float64),
                                   (np.float32, np.float64),
                                   (np.float64, np.float32)]),
           fortran=st.booleans(), threads=st.sampled_from([1, 2, 3, 5]),
           block_rows=st.sampled_from([None, 1, 4]), seed=st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_threaded_product_equals_oneshot(self, n, density, width, dtypes,
                                             fortran, threads, block_rows,
                                             seed):
        """Every product tiles (the work minimum is 0): empty rows, no
        nonzeros, fewer rows than threads, a 1-D or Fortran-ordered
        signal, mixed dtypes, with a tier (``block_rows``) and without."""
        rng = np.random.default_rng(seed)
        csr = sp.random(n, n, density=density, format="csr",
                        random_state=np.random.RandomState(seed),
                        dtype=dtypes[0])
        shape = (n,) if width is None else (n, width)
        dense = rng.normal(size=shape).astype(dtypes[1])
        if fortran:
            dense = np.asfortranarray(dense)
        expected = np.asarray(csr @ dense)
        tier = None if block_rows is None else BlockedTier(
            ram_budget_bytes=1, block_rows=block_rows)
        try:
            with mock.patch.object(blocked, "THREADED_MIN_WORK", 0), \
                    context.using(spmm_threads=threads, tier=tier):
                tiled = spmm_csr(csr, dense)
        finally:
            if tier is not None:
                tier.close()
        assert tiled.dtype == expected.dtype
        assert tiled.shape == expected.shape
        assert tiled.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_taxonomy_precompute_blocked_equals_streamed(
            self, name, tmp_path):
        """Every filter's precompute: blocked scope ≡ in-core, byte-wise."""
        graph = _random_graph(24, seed=3)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter(name, num_hops=6, num_features=x.shape[1])
        streamed = filter_.precompute(graph, x, rho=0.5)
        # Tiny budget: single-digit tile heights, term store spills.
        with blocked_scope(ram_budget_bytes=4096,
                           spill_dir=tmp_path / "spill"):
            with plan.plan_scope():
                tiled = filter_.precompute(graph, x, rho=0.5)
        assert streamed.tobytes() == tiled.tobytes()

    def test_blocked_planned_repeat_identical(self, tmp_path):
        """Spill + reload inside one scope never changes a result bit."""
        graph = _random_graph(20, seed=11)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter("monomial", num_hops=8,
                              num_features=x.shape[1])
        baseline = filter_.precompute(graph, x, rho=0.5)
        with blocked_scope(ram_budget_bytes=2048,
                           spill_dir=tmp_path / "spill"):
            with plan.plan_scope():
                first = filter_.precompute(graph, x, rho=0.5)
                second = filter_.precompute(graph, x, rho=0.5)
        assert baseline.tobytes() == first.tobytes()
        assert baseline.tobytes() == second.tobytes()


class TestRowTiles:
    """One tiling per operator: views of its arrays, equal nnz, claimed
    by whichever thread is free."""

    def test_tiles_view_the_operator_and_balance_nnz(self):
        csr, _ = _random_csr(200, 1, 4)
        tiles = row_tiles(csr, 3)
        assert len(tiles) == 3
        assert (tiles[0][0], tiles[-1][1]) == (0, 200)
        nnz = []
        for (start, stop, indptr, indices, data), following in zip(
                tiles, tiles[1:] + ((200,),)):
            assert stop == following[0]
            assert np.shares_memory(indices, csr.indices)
            assert np.shares_memory(data, csr.data)
            assert indptr[0] == 0
            assert indptr[-1] == csr.indptr[stop] - csr.indptr[start]
            nnz.append(int(indptr[-1]))
        widest = int(np.diff(csr.indptr).max())
        assert max(nnz) - min(nnz) <= 2 * widest

    def test_tiles_cached_per_operator_unless_cache_off(self):
        csr, _ = _random_csr(50, 1, 6)
        assert row_tiles(csr, 2) is row_tiles(csr, 2)
        assert row_tiles(csr, 2, 5) is not row_tiles(csr, 2)
        with context.using(cache=False):
            assert row_tiles(csr, 2) is not row_tiles(csr, 2)

    def test_small_product_stays_one_call(self):
        csr, dense = _random_csr(30, 2, 8)
        assert csr.nnz * 2 < blocked.THREADED_MIN_WORK
        with context.using(spmm_threads=4), \
                mock.patch.object(blocked, "_spmm_tiles") as tiled:
            result = spmm_csr(csr, dense)
        tiled.assert_not_called()
        assert result.tobytes() == np.asarray(csr @ dense).tobytes()

    def test_large_product_runs_on_threads(self):
        csr, dense = _random_csr(300, 2, 8)
        with context.using(spmm_threads=2), \
                mock.patch.object(blocked, "THREADED_MIN_WORK", 1), \
                mock.patch.object(blocked, "_spmm_tiles",
                                  wraps=blocked._spmm_tiles) as tiled:
            result = spmm_csr(csr, dense)
            precompute = spmm_csr(csr, dense, threaded=False)
        assert tiled.call_count == 1
        _, _, tiles, threads = tiled.call_args.args
        assert threads == 2
        assert len(tiles) == 2 * blocked.TILES_PER_THREAD
        assert result.tobytes() == np.asarray(csr @ dense).tobytes()
        assert precompute.tobytes() == result.tobytes()

    def test_helper_that_never_runs_holds_nothing_up(self):
        """A helper the OS does not schedule leaves its tiles to the
        caller: the product completes on the calling thread alone."""
        csr, dense = _random_csr(300, 2, 8)

        class Idle:
            def submit(self, fn):
                return None

        with mock.patch.object(blocked._helpers, "executor",
                               return_value=Idle()):
            result = blocked_spmm(csr, dense, threads=3)
        assert result.tobytes() == np.asarray(csr @ dense).tobytes()

    def test_tile_error_reaches_the_caller(self):
        csr, dense = _random_csr(300, 2, 8)
        with mock.patch.object(blocked._sparsetools, "csr_matvecs",
                               side_effect=RuntimeError("kernel")), \
                pytest.raises(RuntimeError, match="kernel"):
            blocked_spmm(csr, dense, threads=2)


# ----------------------------------------------------------------------
# 2. planner spill round-trip
# ----------------------------------------------------------------------
class TestPlannerSpill:
    def test_evicted_chain_spills_and_reloads(self, tmp_path):
        graph = _random_graph(16, seed=21)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x = np.asarray(graph.features, dtype=np.float32)
        expected = np.asarray(matrix @ x)
        telemetry.configure()
        try:
            with blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                               spill_dir=tmp_path / "spill") as run:
                tier = run.tier
                # Shrink the term budget so the first chain must spill
                # as soon as a second one needs room.
                tier.term_budget_bytes = 1
                with plan.plan_scope() as planner:
                    planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                    planner.chain_terms(ctx, x, "chebyshev", (), 4)
                    stats = planner.stats()
                    assert stats["terms_spilled"] >= 1
                    assert tier.stats()["spill_files"] \
                        == stats["terms_spilled"]
                    # Re-request: terms come back as read-only memmaps,
                    # bit-identical, with zero recomputation of order-1.
                    terms = planner.chain_terms(ctx, x, "monomial_adj",
                                                (), 4)
                    assert terms[1].tobytes() == expected.tobytes()
                    assert planner.stats()["terms_loaded"] >= 1
                    assert tier.stats()["load_files"] \
                        == planner.stats()["terms_loaded"]
            counters = telemetry.get_metrics().snapshot()["counters"]
            assert counters["plan.terms.spill"] >= 1
            assert counters["plan.terms.spill_load"] >= 1
            # Each spill and load is counted once, by the planner.
            assert "blocked.spill_files" not in counters
            assert "blocked.load_files" not in counters
        finally:
            telemetry.shutdown()

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES])
    @pytest.mark.parametrize("name", ["chebyshev", "ppr"])
    def test_failed_spill_degrades_to_recompute(self, name, code, tmp_path,
                                                monkeypatch):
        """A spill directory that refuses writes costs recomputation,
        never the run: the payload is the fault-free one, each dropped
        term is counted, and no scratch file is left behind."""
        graph = _random_graph(24, seed=29)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = make_filter(name, num_hops=6, num_features=x.shape[1])
        # A second filter on another chain, so the first chain is shed
        # (and its spill attempted) under the 1-byte term budget.
        other = make_filter("jacobi", num_hops=6, num_features=x.shape[1])
        expected = filter_.precompute(graph, x, rho=0.5)

        def refuse(_src, _dst):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "replace", refuse)
        telemetry.configure()
        try:
            with blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                               spill_dir=tmp_path / "spill") as run:
                tier = run.tier
                tier.term_budget_bytes = 1
                with plan.plan_scope():
                    first = filter_.precompute(graph, x, rho=0.5)
                    other.precompute(graph, x, rho=0.5)
                    again = filter_.precompute(graph, x, rho=0.5)
                assert list(tier.spill.root.iterdir()) == []
                assert tier.stats()["spill_files"] == 0
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.shutdown()
        assert first.tobytes() == expected.tobytes()
        assert again.tobytes() == expected.tobytes()
        assert counters["blocked.spill_failed"] >= 1
        assert "plan.terms.spill" not in counters

    def test_resident_bytes_accounting(self, tmp_path):
        graph = _random_graph(16, seed=23)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                           spill_dir=tmp_path / "spill"):
            with plan.plan_scope() as planner:
                terms = planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                computed = sum(int(t.nbytes) for t in terms[1:])
                assert planner.stats()["resident_term_bytes"] == computed

    def test_no_spill_without_blocked_scope(self):
        """Outside a blocked scope eviction drops terms (seed behaviour)."""
        graph = _random_graph(16, seed=25)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope(capacity=1) as planner:
            planner.chain_terms(ctx, x, "monomial_adj", (), 4)
            planner.chain_terms(ctx, x, "chebyshev", (), 4)
            stats = planner.stats()
            assert stats["terms_spilled"] == 0
            assert stats["terms_loaded"] == 0


# ----------------------------------------------------------------------
# 3. budget tuning and scope rules
# ----------------------------------------------------------------------
class TestBudget:
    @given(num_rows=st.integers(0, 10 ** 6),
           row_nbytes=st.integers(1, 10 ** 6),
           budget=st.integers(1, 10 ** 9))
    @settings(max_examples=60, deadline=None)
    def test_choose_block_rows_bounds(self, num_rows, row_nbytes, budget):
        rows = choose_block_rows(num_rows, row_nbytes, budget)
        assert 1 <= rows <= max(num_rows, 1)

    def test_large_budget_single_tile(self):
        assert choose_block_rows(100, 8, 2 ** 40) == 100

    def test_default_budget_floored(self):
        assert default_ram_budget() >= blocked.MIN_RAM_BUDGET_BYTES

    def test_tier_counts_tiles(self, tmp_path):
        csr, dense = _random_csr(32, 2, 3)
        tier = BlockedTier(ram_budget_bytes=1, block_rows=8,
                           spill_dir=tmp_path / "spill")
        try:
            tier.spmm(csr, dense)
            stats = tier.stats()
            assert stats["spmm_calls"] == 1
            assert stats["tiles"] == 4
        finally:
            tier.close()

    def test_tier_counts_tiles_on_the_coo_gather_path(self, tmp_path):
        """The edge-list backend's segment sum goes through the same hook:
        the tier tiles the reducer product, bit-identically."""
        csr, dense = _random_csr(32, 2, 3)
        tier = BlockedTier(ram_budget_bytes=1, block_rows=8,
                           spill_dir=tmp_path / "spill")
        try:
            with context.using(tier=tier):
                out = spmm(csr, Tensor(dense), backend="coo_gather")
            stats = tier.stats()
            assert stats["spmm_calls"] == 1
            assert stats["tiles"] == 4
        finally:
            tier.close()
        assert out.data.tobytes() == \
            spmm(csr, Tensor(dense), backend="coo_gather").data.tobytes()

    def test_threads_share_the_tile_budget(self, tmp_path):
        csr, dense = _random_csr(32, 2, 3)
        tier = BlockedTier(ram_budget_bytes=1, block_rows=8,
                           spill_dir=tmp_path / "spill")
        try:
            with mock.patch.object(blocked, "THREADED_MIN_WORK", 0), \
                    context.using(spmm_threads=2, tier=tier):
                result = spmm_csr(csr, dense)
            # Two threads halve the tile height to 4 rows: at least 8
            # tiles cover the 32 rows.
            assert tier.stats()["tiles"] >= 8
        finally:
            tier.close()
        assert result.tobytes() == np.asarray(csr @ dense).tobytes()

    def test_scope_stack_and_cleanup(self, tmp_path):
        assert context.current().tier is None
        with blocked_scope(ram_budget_bytes=1024) as run:
            tier = run.tier
            assert context.current().tier is tier
            spill_root = tier.spill.root
            assert spill_root.exists()
        assert context.current().tier is None
        assert not spill_root.exists()  # scope-created tier owns its dir

    def test_caller_tier_left_open(self, tmp_path):
        tier = BlockedTier(ram_budget_bytes=1024,
                           spill_dir=tmp_path / "spill")
        with context.using(tier=tier):
            pass
        assert not tier.closed
        tier.close()

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            BlockedTier(ram_budget_bytes=-5)


# ----------------------------------------------------------------------
# 4. GP training scheme integration
# ----------------------------------------------------------------------
class TestGraphPartitionScheme:
    def _fit(self, graph, device=None, num_parts=3, epochs=2):
        split = random_split(graph.num_nodes, seed=0)
        filter_ = make_filter("monomial", num_hops=3,
                              num_features=graph.num_features)
        config = TrainConfig(epochs=epochs, patience=epochs, seed=0)
        trainer = GraphPartitionTrainer(num_parts=num_parts, device=device)
        return trainer.fit(graph, split, filter_, config)

    def test_cut_edge_accounting(self, small_graph):
        result = self._fit(small_graph)
        assert result.status == "ok"
        assert result.cut_edges is not None and result.cut_edges > 0
        assert 0.0 < result.cut_edge_fraction <= 1.0
        assert result.num_parts == 3
        summary = result.summary()
        assert summary["cut_edges"] == result.cut_edges
        assert summary["num_parts"] == 3

    def test_ooms_iff_largest_cluster_does_not_fit(self, small_graph):
        # Far below one cluster's operator+features: must OOM.
        tight = DeviceModel(capacity_bytes=2048, name="gp-tiny")
        result = self._fit(small_graph, device=tight, epochs=1)
        assert result.status == "oom"
        # Room for the largest cluster (but far less than the full
        # graph's features would need under full-batch): must fit.
        roomy = DeviceModel(capacity_bytes=256 * 2 ** 20, name="gp-ok")
        result = self._fit(small_graph, device=roomy, epochs=1)
        assert result.status == "ok"

    def test_gp_under_blocked_scope_identical(self, small_graph, tmp_path):
        plain = self._fit(small_graph)
        with blocked_scope(ram_budget_bytes=8192,
                           spill_dir=tmp_path / "spill"):
            tiled = self._fit(small_graph)
        assert plain.predictions.tobytes() == tiled.predictions.tobytes()
        assert plain.cut_edges == tiled.cut_edges
