"""The blocked tier must be *invisible* — and must actually go out of core.

`repro.runtime.blocked` runs large CSR products over equal-nnz row tiles
on threads and lets the basis planner spill whole term matrices to
mmap-backed files. Contracts:

1. **Bit-identity** (hypothesis + taxonomy sweep): tiled spmm — on one
   thread or several — and blocked-tier precompute are byte-for-byte
   identical to the in-core path — the same contract the planner and
   every cache already hold.
2. **Spill round-trip**: a planner chain evicted under a tiny term
   budget lands in the spill directory and is served back bit-identical as a
   read-only memmap, with ``plan.terms.spill`` / ``plan.terms.spill_load``
   traffic on the counters.
3. **Budget and scope rules**: the derived budget is floored, the tier
   is closed with its run, and closing it deletes only the terms it
   spilled. (The spill directory's file mechanics are the file tier's,
   tested in ``tests/test_runtime_files.py``.)
4. **GP integration**: graph-partition training reports cut-edge
   accounting and OOMs exactly when the largest cluster cannot fit.
"""

from __future__ import annotations

import errno
import gc
import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor, spmm, spmm_numpy
from repro.datasets.splits import random_split
from repro.filters.base import PropagationContext
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.models.baselines import NAGphormerLite
from repro.runtime import blocked, context, plan
from repro.runtime.blocked import (
    BlockedTier,
    blocked_spmm,
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
           threads=st.integers(1, 6), seed=st.integers(0, 30))
    @settings(max_examples=40, deadline=None)
    def test_blocked_spmm_equals_oneshot(self, n, width, threads, seed):
        csr, dense = _random_csr(n, width, seed)
        expected = np.asarray(csr @ dense)
        tiled = blocked_spmm(csr, dense, threads)
        assert expected.tobytes() == tiled.tobytes()

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
           seed=st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_threaded_product_equals_oneshot(self, n, density, width, dtypes,
                                             fortran, threads, seed):
        """Every product tiles (the work minimum is 0): empty rows, no
        nonzeros, fewer rows than threads, a 1-D or Fortran-ordered
        signal, mixed dtypes."""
        rng = np.random.default_rng(seed)
        csr = sp.random(n, n, density=density, format="csr",
                        random_state=np.random.RandomState(seed),
                        dtype=dtypes[0])
        shape = (n,) if width is None else (n, width)
        dense = rng.normal(size=shape).astype(dtypes[1])
        if fortran:
            dense = np.asfortranarray(dense)
        expected = np.asarray(csr @ dense)
        with mock.patch.object(blocked, "THREADED_MIN_WORK", 0), \
                context.using(spmm_threads=threads):
            tiled = spmm_csr(csr, dense)
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
        # Tiny budget: the term store spills.
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
    """A product's tiles: views of the operator's arrays, equal nnz,
    claimed by whichever thread is free."""

    def test_tiles_view_the_operator_and_balance_nnz(self):
        csr, _ = _random_csr(200, 1, 4)
        tiles = row_tiles(csr, 3)
        assert len(tiles) == 3
        assert (tiles[0][0], tiles[-1][1]) == (0, 200)
        nnz = []
        for (start, stop, indptr, indices, data), following in zip(
                tiles, tiles[1:] + ((200,),)):
            assert stop == following[0]
            assert np.shares_memory(indptr, csr.indptr)
            assert np.shares_memory(indices, csr.indices)
            assert np.shares_memory(data, csr.data)
            assert indptr.tolist() == csr.indptr[start:stop + 1].tolist()
            nnz.append(int(indptr[-1] - indptr[0]))
        widest = int(np.diff(csr.indptr).max())
        assert max(nnz) - min(nnz) <= 2 * widest

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
        assert tiled.call_count == 1
        _, _, tiles, threads = tiled.call_args.args
        assert threads == 2
        assert len(tiles) == 2 * blocked.TILES_PER_THREAD
        assert result.tobytes() == np.asarray(csr @ dense).tobytes()

    def test_coo_gather_segment_sum_runs_on_threads(self):
        """The edge-list backend's segment sum goes through the same hook:
        a training product of the reducer runs on threads, bit-identically."""
        csr, dense = _random_csr(300, 2, 3)
        with context.using(spmm_threads=2), \
                mock.patch.object(blocked, "THREADED_MIN_WORK", 1), \
                mock.patch.object(blocked, "_spmm_tiles",
                                  wraps=blocked._spmm_tiles) as tiled:
            out = spmm(csr, Tensor(dense), backend="coo_gather")
        assert tiled.call_count == 1
        assert out.data.tobytes() == \
            spmm(csr, Tensor(dense), backend="coo_gather").data.tobytes()

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


@contextmanager
def _tiled(threads):
    """Run on ``threads`` spmm threads, recording each tiled product."""
    with context.using(spmm_threads=threads), \
            mock.patch.object(blocked, "_spmm_tiles",
                              wraps=blocked._spmm_tiles) as tiled:
        yield tiled


class TestThreadedPrecompute:
    """Gradient-free precompute takes the training products' path: every
    product at the work minimum runs in row tiles on the run's
    ``spmm_threads`` and returns the one-shot product's bytes."""

    @pytest.fixture(scope="class")
    def graph(self):
        rng = np.random.default_rng(7)
        n = 3000
        edges = rng.integers(0, n, size=(30000, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        features = rng.normal(size=(n, 80)).astype(np.float32)
        graph = Graph.from_edges(n, edges, features=features,
                                 labels=rng.integers(0, 3, size=n))
        work = graph.normalized_adjacency(0.5).nnz * features.shape[1]
        assert work >= blocked.THREADED_MIN_WORK
        return graph

    @staticmethod
    def _assert_tiled(tiled, products):
        assert tiled.call_count == products
        assert all(call.args[3] == 2 for call in tiled.call_args_list)

    @pytest.mark.parametrize("backend", ["csr", "coo_gather"])
    def test_spmm_numpy(self, graph, backend):
        matrix = graph.normalized_adjacency(0.5)
        x = graph.features
        with _tiled(2) as tiled:
            out = spmm_numpy(matrix, x, backend=backend)
        self._assert_tiled(tiled, 1)
        assert out.tobytes() == np.asarray(matrix @ x).tobytes()

    def test_planner_chain(self, graph):
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = graph.features
        with context.using(spmm_threads=1), plan.plan_scope() as planner:
            expected = planner.chain_terms(ctx, x, "chebyshev", (), 4)
        with _tiled(2) as tiled, plan.plan_scope() as planner:
            terms = planner.chain_terms(ctx, x, "chebyshev", (), 4)
        self._assert_tiled(tiled, len(terms) - 1)  # T0 is x itself
        assert [t.tobytes() for t in terms] == \
            [t.tobytes() for t in expected]

    def test_nagphormer_tokens(self, graph):
        model = NAGphormerLite(graph.num_features, 3,
                               rng=np.random.default_rng(0))
        with context.using(spmm_threads=1):
            expected = model.precompute_tokens(graph)
        with _tiled(2) as tiled:
            tokens = model.precompute_tokens(graph)
        self._assert_tiled(tiled, 4)
        assert tokens.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# 2. planner spill round-trip
# ----------------------------------------------------------------------
class TestPlannerSpill:
    def test_evicted_chain_spills_and_reloads(self, tmp_path, counters):
        graph = _random_graph(16, seed=21)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x = np.asarray(graph.features, dtype=np.float32)
        expected = np.asarray(matrix @ x)
        with blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                           spill_dir=tmp_path / "spill") as run:
            tier = run.tier
            # Shrink the term budget so the first chain must spill
            # as soon as a second one needs room.
            tier.term_budget_bytes = 1
            with plan.plan_scope() as planner:
                planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                planner.chain_terms(ctx, x, "chebyshev", (), 4)
                spilled = counters()["plan.terms.spill"]
                assert spilled >= 1
                # One file per spilled term.
                assert len(list(tier.spill.root.iterdir())) == spilled
                # Re-request: terms come back as read-only memmaps,
                # bit-identical, with zero recomputation of order-1.
                terms = planner.chain_terms(ctx, x, "monomial_adj",
                                            (), 4)
                assert terms[1].tobytes() == expected.tobytes()
                assert counters()["plan.terms.spill_load"] >= 1
        # Each spill and load is counted once, by the planner.
        assert "blocked.spill_files" not in counters()
        assert "blocked.load_files" not in counters()

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
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.shutdown()
        assert first.tobytes() == expected.tobytes()
        assert again.tobytes() == expected.tobytes()
        assert counters["blocked.spill_failed"] >= 1
        assert "plan.terms.spill" not in counters

    def test_resident_bytes_accounting(self, tmp_path):
        """Resident bytes are what the live chains hold: a chain that
        leaves because its operator was mutated or collected takes its
        bytes with it, so the budget never sheds on stale bytes."""
        graph = _random_graph(16, seed=23)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x = np.asarray(graph.features, dtype=np.float32)
        with blocked_scope(ram_budget_bytes=64 * 2 ** 20,
                           spill_dir=tmp_path / "spill"):
            with plan.plan_scope() as planner:
                terms = planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                computed = sum(int(t.nbytes) for t in terms[1:])
                assert planner.resident_bytes == computed
                # A mutated operator fails its token: the stale chain is
                # dropped and the rebuilt one counted once.
                matrix.data *= 2.0
                planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                assert len(planner._chains) == 1
                assert planner.resident_bytes == computed
                # A collected operator discards its chain.
                other = graph.normalized_adjacency(0.5).copy()
                planner.chain_terms(PropagationContext(other), x,
                                    "monomial_adj", (), 4)
                assert planner.resident_bytes == 2 * computed
                del other
                gc.collect()
                assert len(planner._chains) == 1
                assert planner.resident_bytes == computed

    def test_no_spill_without_blocked_scope(self, counters, monkeypatch):
        """Outside a blocked scope eviction drops terms (seed behaviour)."""
        graph = _random_graph(16, seed=25)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        monkeypatch.setattr(plan, "PLAN_CHAIN_ENTRIES", 1)
        with plan.plan_scope() as planner:
            planner.chain_terms(ctx, x, "monomial_adj", (), 4)
            planner.chain_terms(ctx, x, "chebyshev", (), 4)
            assert counters()["plan.chains.evict"] == 1
            assert "plan.terms.spill" not in counters()
            assert "plan.terms.spill_load" not in counters()


# ----------------------------------------------------------------------
# 3. budget and scope rules
# ----------------------------------------------------------------------
class TestBudget:
    def test_default_budget_floored(self):
        assert default_ram_budget() >= blocked.MIN_RAM_BUDGET_BYTES

    def test_close_purges_only_spilled_terms(self, tmp_path):
        """A user-named spill directory keeps every file the tier did not
        write; its terms and a crashed write's scratch file go."""
        root = tmp_path / "spill"
        root.mkdir()
        for name in ("notes.json", "weights.npy", "keep.tmp"):
            (root / name).write_text("mine")
        tier = BlockedTier(ram_budget_bytes=1024, spill_dir=root)
        tier.spill_term("c-0123456789abcdef.1", np.ones(3))
        (root / ".c-0123456789abcdef.2.npy.k3x9_q1z.tmp").write_bytes(b"")
        tier.close()
        assert sorted(path.name for path in root.iterdir()) == [
            "keep.tmp", "notes.json", "weights.npy"]

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
    def _fit(self, graph, device=None, epochs=2):
        split = random_split(graph.num_nodes, seed=0)
        filter_ = make_filter("monomial", num_hops=3,
                              num_features=graph.num_features)
        config = TrainConfig(epochs=epochs, patience=epochs, seed=0)
        trainer = GraphPartitionTrainer(device=device)
        return trainer.fit(graph, split, filter_, config)

    def test_cut_edge_accounting(self, small_graph):
        result = self._fit(small_graph)
        assert result.status == "ok"
        assert result.cut_edges is not None and result.cut_edges > 0
        assert 0.0 < result.cut_edge_fraction <= 1.0
        assert result.num_parts == 4

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
