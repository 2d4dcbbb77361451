"""The basis-term planner must be *invisible* — and must actually share.

`repro.runtime.plan` serves recurrence chains from a bounded term store
so a sweep computes each distinct ``T^(k)(L̃)·X`` once. These tests prove
its contracts:

1. **Bit-identity** (hypothesis property tests): planned and unplanned
   propagation produce byte-for-byte identical outputs across the filter
   taxonomy — mini-batch numpy precompute (where the planner engages,
   including the all-hits second pass) and full-batch autodiff forward
   (where it must stay out of the way).
2. **Invalidation**: an in-place graph mutation or a different / mutated
   signal never serves a stale chain.
3. **Boundedness**: the chain store is a bounded LRU; evicted chains
   report their dropped terms on ``plan.terms.evict``.
4. **Sharing**: monomial-family filters reuse one adjacency chain — the
   second filter's chain terms cost zero spmm calls.
5. **Bypass**: ``--no-plan`` / ``--no-cache`` semantics (the run
   context's ``plan`` / ``cache`` switches) and scope rules (no scope →
   stream; nested scopes reuse; ``fresh=True`` isolates).
6. **Streamed memory**: a streamed chain holds its history, the new
   term and at most one scratch buffer.
7. **Chain lifetimes**: the demand probe finds exactly the chains a
   precompute reads, and an inline sweep releases each chain after the
   last live cell that reads it — same hits, no spill, LRU fallback for
   what the demand did not foresee.

Planned ≡ streamed holds because both run one executor; that executor is
held to digests captured before it existed by ``test_basis_golden.py``.
"""

from __future__ import annotations

import contextlib
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor
from repro.datasets import synthesize
from repro.filters.base import PropagationContext
from repro.filters.registry import FILTER_NAMES, make_filter
from repro.graph import Graph
from repro.runtime import context, plan


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


def _filter_for(name: str, num_hops: int, num_features: int):
    return make_filter(name, num_hops=num_hops, num_features=num_features)


#: Filters whose basis chains route through the planner, spanning every
#: chain family (monomial adj/lap, three-term recurrences, horner,
#: shifted-monomial, gaussian) and all three taxonomy categories.
PLANNED_FILTERS = (
    "linear", "impulse", "monomial", "ppr", "hk", "gaussian",   # fixed
    "linear_var", "monomial_var", "horner", "chebyshev",        # variable
    "chebinterp", "clenshaw", "bernstein", "legendre", "jacobi",
    "favard",
    "fbgnn2", "acmgnn1", "fagnn", "g2cn", "gnnlfhf", "figure",  # banks
    "adagnn",
)


# ----------------------------------------------------------------------
# 1. bit-identity across the taxonomy
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_mb_precompute_bit_identical(self, name):
        """Planned == unplanned == all-hits repeat, for all 27 filters."""
        graph = _random_graph(24, seed=3)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = _filter_for(name, num_hops=6, num_features=x.shape[1])
        unplanned = filter_.precompute(graph, x, rho=0.5)
        with plan.plan_scope():
            planned = filter_.precompute(graph, x, rho=0.5)
            repeat = filter_.precompute(graph, x, rho=0.5)
        assert unplanned.tobytes() == planned.tobytes()
        assert unplanned.tobytes() == repeat.tobytes()

    @given(seed=st.integers(0, 50), num_hops=st.integers(0, 8),
           rho=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_planned_chains_bit_identical_property(self, seed, num_hops, rho):
        """Random graph/order/ρ: every planned family == streamed."""
        graph = _random_graph(12 + seed % 9, seed=seed)
        x = np.asarray(graph.features, dtype=np.float32)
        for name in ("monomial", "gaussian", "horner", "chebyshev",
                     "clenshaw", "legendre", "jacobi", "fagnn", "fbgnn2"):
            filter_ = _filter_for(name, num_hops=num_hops,
                                  num_features=x.shape[1])
            unplanned = filter_.precompute(graph, x, rho=rho)
            with plan.plan_scope():
                planned = filter_.precompute(graph, x, rho=rho)
            assert unplanned.tobytes() == planned.tobytes(), name

    @pytest.mark.parametrize("name", PLANNED_FILTERS)
    def test_fb_autodiff_forward_unaffected(self, name, counters):
        """Tensor signals stream: forward (and grads) identical in-scope."""
        graph = _random_graph(16, seed=7)
        x_data = np.asarray(graph.features, dtype=np.float32)
        filter_ = _filter_for(name, num_hops=4, num_features=x_data.shape[1])
        params = {p: Tensor(s.init.copy(), requires_grad=True)
                  for p, s in filter_.parameter_spec().items()}

        def run_once():
            ctx = PropagationContext.for_graph(graph, 0.5)
            x = Tensor(x_data.copy(), requires_grad=True)
            out = filter_.forward(ctx, x, params or None)
            out.sum().backward()
            grad = x.grad.copy() if x.grad is not None else None
            for p in params.values():
                p.grad = None
            return np.asarray(out.data), grad

        out_plain, grad_plain = run_once()
        with plan.plan_scope():
            out_planned, grad_planned = run_once()
            assert "plan.terms.miss" not in counters(), \
                "planner must not capture autodiff signals"
        assert out_plain.tobytes() == out_planned.tobytes()
        if grad_plain is not None:
            assert grad_plain.tobytes() == grad_planned.tobytes()

    def test_spectral_context_streams(self, counters):
        """Response grids never enter the term store."""
        lams = np.linspace(0.0, 2.0, 33)
        filter_ = _filter_for("chebyshev", num_hops=5, num_features=3)
        plain = filter_.response(lams)
        with plan.plan_scope():
            planned = filter_.response(lams)
            assert "plan.terms.miss" not in counters()
        assert plain.tobytes() == planned.tobytes()


# ----------------------------------------------------------------------
# 2. invalidation
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_matrix_mutation_invalidates_chain(self):
        graph = _random_graph(20, seed=11)
        x = np.asarray(graph.features, dtype=np.float32)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        with plan.plan_scope() as planner:
            before = [t.copy() for t in
                      planner.chain_terms(ctx, x, "monomial_adj", (), 4)]
            matrix.data *= 2.0  # in-place mutation, same object identity
            after = planner.chain_terms(ctx, x, "monomial_adj", (), 4)
            # Chain was recomputed against the mutated operator.
            assert after[1].tobytes() != before[1].tobytes()
            expected = matrix @ x
            assert after[1].tobytes() == np.asarray(expected).tobytes()

    def test_different_signal_gets_its_own_chain(self):
        graph = _random_graph(20, seed=12)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x1 = np.asarray(graph.features, dtype=np.float32)
        x2 = x1 + 1.0
        with plan.plan_scope() as planner:
            t1 = planner.chain_terms(ctx, x1, "monomial_adj", (), 3)
            t2 = planner.chain_terms(ctx, x2, "monomial_adj", (), 3)
            assert len(planner._chains) == 2
            assert t1[1].tobytes() != t2[1].tobytes()
            assert t2[1].tobytes() == np.asarray(matrix @ x2).tobytes()

    def test_signal_mutation_invalidates_chain(self):
        graph = _random_graph(20, seed=13)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x = np.asarray(graph.features, dtype=np.float32).copy()
        with plan.plan_scope() as planner:
            planner.chain_terms(ctx, x, "monomial_adj", (), 3)
            x += 1.0  # same object identity, new payload
            terms = planner.chain_terms(ctx, x, "monomial_adj", (), 3)
            assert terms[1].tobytes() == np.asarray(matrix @ x).tobytes()

    def test_dead_matrix_purges_chain(self):
        graph = _random_graph(18, seed=14)
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope() as planner:
            matrix = graph.normalized_adjacency(0.5).copy()
            ctx = PropagationContext(matrix)
            planner.chain_terms(ctx, x, "monomial_adj", (), 3)
            assert len(planner._chains) == 1
            del ctx, matrix
            gc.collect()
            assert len(planner._chains) == 0


# ----------------------------------------------------------------------
# 3. LRU bound + eviction accounting
# ----------------------------------------------------------------------
class TestBoundedStore:
    def test_chain_capacity_bound_and_evict_counter(self, monkeypatch):
        graph = _random_graph(16, seed=21)
        matrix = graph.normalized_adjacency(0.5)
        ctx = PropagationContext(matrix)
        x = np.asarray(graph.features, dtype=np.float32)
        monkeypatch.setattr(plan, "PLAN_CHAIN_ENTRIES", 2)
        telemetry.configure()
        try:
            with plan.plan_scope() as planner:
                # Three distinct chains through a capacity-2 store.
                planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                planner.chain_terms(ctx, x, "monomial_lap", (), 4)
                planner.chain_terms(ctx, x, "chebyshev", (), 4)
                assert len(planner._chains) == 2
                # The evicted monomial_adj chain held 3 order-k terms.
                counters = telemetry.get_metrics().snapshot()["counters"]
                assert counters["plan.chains.evict"] == 1
                assert counters["plan.terms.evict"] == 3
                # Re-requesting the evicted chain recomputes, bit-identical.
                terms = planner.chain_terms(ctx, x, "monomial_adj", (), 4)
                assert terms[1].tobytes() == \
                    np.asarray(matrix @ x).tobytes()
        finally:
            telemetry.shutdown()

    def test_served_terms_are_read_only(self):
        graph = _random_graph(16, seed=22)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope() as planner:
            terms = planner.chain_terms(ctx, x, "monomial_adj", (), 3)
            assert terms[0] is x  # the signal itself, flags untouched
            for term in terms[1:]:
                with pytest.raises(ValueError):
                    term += 1.0


# ----------------------------------------------------------------------
# 4. sharing: the point of the whole module
# ----------------------------------------------------------------------
class TestSharing:
    def test_monomial_filters_share_one_chain(self):
        graph = _random_graph(20, seed=31)
        x = np.asarray(graph.features, dtype=np.float32)
        telemetry.configure()
        try:
            with plan.plan_scope():
                _filter_for("ppr", 6, x.shape[1]).precompute(graph, x)
                after_first = telemetry.get_metrics() \
                    .snapshot()["counters"].get("ops.spmm.calls", 0)
                _filter_for("monomial", 6, x.shape[1]).precompute(graph, x)
                _filter_for("impulse", 6, x.shape[1]).precompute(graph, x)
                after_all = telemetry.get_metrics() \
                    .snapshot()["counters"]
            assert after_first == 6
            # monomial + impulse rode the ppr chain: zero extra spmm.
            assert after_all["ops.spmm.calls"] == after_first
            assert after_all["plan.terms.hit"] == 12
            assert after_all["plan.spmm_avoided"] == 12
        finally:
            telemetry.shutdown()

    def test_deeper_request_extends_incrementally(self):
        graph = _random_graph(20, seed=32)
        x = np.asarray(graph.features, dtype=np.float32)
        telemetry.configure()
        try:
            with plan.plan_scope():
                _filter_for("ppr", 4, x.shape[1]).precompute(graph, x)
                _filter_for("ppr", 9, x.shape[1]).precompute(graph, x)
                counters = telemetry.get_metrics().snapshot()["counters"]
            # 4 spmm for K=4, then only the 5-term suffix for K=9.
            assert counters["ops.spmm.calls"] == 9
            assert counters["plan.terms.hit"] == 4
            assert counters["plan.terms.miss"] == 9
        finally:
            telemetry.shutdown()

    def test_chebinterp_shares_chebyshev_chain(self):
        graph = _random_graph(20, seed=33)
        x = np.asarray(graph.features, dtype=np.float32)
        telemetry.configure()
        try:
            with plan.plan_scope():
                _filter_for("chebyshev", 5, x.shape[1]).precompute(graph, x)
                _filter_for("chebinterp", 5, x.shape[1]).precompute(graph, x)
                counters = telemetry.get_metrics().snapshot()["counters"]
            assert counters["ops.spmm.calls"] == 5
            assert counters["plan.terms.hit"] == 5
        finally:
            telemetry.shutdown()


# ----------------------------------------------------------------------
# 5. bypass + scope rules
# ----------------------------------------------------------------------
class TestBypassAndScopes:
    def test_no_scope_no_planner(self):
        assert context.current().active_planner is None

    def test_disabled_planner_streams(self, counters):
        graph = _random_graph(16, seed=41)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope():
            with context.using(plan=False):
                assert context.current().active_planner is None
                list(plan.chain_bases(ctx, x, "monomial_adj", (), 3))
            assert "plan.terms.miss" not in counters()

    def test_no_cache_disables_planner_at_serve_time(self):
        with plan.plan_scope():
            with context.using(cache=False):
                assert context.current().active_planner is None
            assert context.current().active_planner is not None

    def test_nested_scope_reuses_planner(self):
        with plan.plan_scope() as outer:
            with plan.plan_scope() as inner:
                assert inner is outer
            assert context.current().active_planner is outer

    def test_fresh_scope_isolates(self):
        graph = _random_graph(16, seed=42)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope() as outer:
            outer.chain_terms(ctx, x, "monomial_adj", (), 3)
            with plan.plan_scope(fresh=True) as worker:
                assert worker is not outer
                assert len(worker._chains) == 0
                assert context.current().active_planner is worker
            assert context.current().active_planner is outer

    def test_scope_exit_clears_chains(self):
        graph = _random_graph(16, seed=43)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with plan.plan_scope() as planner:
            planner.chain_terms(ctx, x, "monomial_adj", (), 3)
        assert len(planner._chains) == 0

    def test_unknown_family_raises(self):
        graph = _random_graph(12, seed=44)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        with pytest.raises(KeyError):
            list(plan.chain_bases(ctx, x, "not_a_family", (), 3))


# ----------------------------------------------------------------------
# streamed chains hold their history, the new term and one scratch
# ----------------------------------------------------------------------
class TestStreamedChainMemory:
    """Traced peak of a streamed K = 10 chain whose consumer drops each
    term after reading it, in units of one ``(n, F)`` float32 term (4.2 MB
    here), plus 64 KiB for the interpreter's own objects."""

    @pytest.fixture(scope="class")
    def pokec(self):
        graph = synthesize("pokec", scale=0.01)
        return (PropagationContext.for_graph(graph, 0.5),
                np.asarray(graph.features, dtype=np.float32))

    @pytest.mark.parametrize("family,params,count,terms", [
        ("chebyshev", (), 11, 3),
        ("monomial_lap", (), 11, 2),
        ("legendre", (), 11, 4),
        ("gaussian", (1.0, -1.0, 5), 6, 4),
        ("jacobi", (1.0, 1.0), 11, 4),
    ])
    def test_peak_within_bound(self, pokec, family, params, count, terms):
        ctx, x = pokec
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for term in plan.stream_chain(ctx, x, family, params, count):
                del term
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= terms * x.nbytes + 64 * 1024, \
            f"{peak / x.nbytes:.3f} terms"


# ----------------------------------------------------------------------
# token fingerprints
# ----------------------------------------------------------------------
class TestArrayToken:
    def test_token_changes_on_mutation(self):
        x = np.arange(12, dtype=np.float32).reshape(4, 3)
        before = plan.array_token(x)
        x[2, 1] += 1.0
        assert plan.array_token(x) != before

    def test_token_stable_and_shape_sensitive(self):
        x = np.ones((5, 2), dtype=np.float32)
        assert plan.array_token(x) == plan.array_token(x)
        assert plan.array_token(x) != plan.array_token(x.reshape(2, 5))
        assert plan.array_token(np.empty((0, 3), dtype=np.float32)) \
            == plan.array_token(np.empty((0, 3), dtype=np.float32))


# ----------------------------------------------------------------------
# 7. chain lifetimes: a chain lives from its first reader to its last
# ----------------------------------------------------------------------
#: ``sweep_serial``'s grid (``benchmarks/perf/workloads.py``).
SWEEP_FILTERS = ("linear", "impulse", "monomial", "ppr", "hk", "gaussian",
                 "monomial_var", "horner", "chebyshev", "chebinterp",
                 "clenshaw", "fbgnn2")


def _sweep(filters, dataset_names=("pokec",), scale=0.002, **kwargs):
    from repro.bench.experiments import efficiency_experiment
    from repro.training.loop import TrainConfig

    config = TrainConfig(epochs=1, patience=0, eval_every=10 ** 9)
    return efficiency_experiment(dataset_names, filters=filters,
                                 schemes=("mini_batch",), config=config,
                                 scale_override=scale, **kwargs)


@pytest.fixture
def store_log(monkeypatch):
    """Wrap :meth:`BasisPlanner.reading`: the log gets, per live cell,
    the ``(label, family)`` of every stored chain as the cell starts and
    after its release."""
    log = []
    reading = plan.BasisPlanner.reading

    def chains(planner):
        return sorted((bound[2].label, key[3])
                      for key, bound in planner._chains.items())

    @contextlib.contextmanager
    def logged(self, label, later):
        entry = {"label": label, "before": chains(self)}
        with reading(self, label, later):
            yield
        entry["after"] = chains(self)
        log.append(entry)

    monkeypatch.setattr(plan.BasisPlanner, "reading", logged)
    return log


class TestChainLifetimes:
    @pytest.mark.parametrize("name", FILTER_NAMES)
    def test_demand_is_what_precompute_reads(self, name):
        """The one-point probe finds exactly the chains a planned
        precompute stores: no filter declares its chains twice."""
        graph = _random_graph(20, seed=51)
        x = np.asarray(graph.features, dtype=np.float32)
        filter_ = _filter_for(name, num_hops=6, num_features=x.shape[1])
        with plan.plan_scope() as planner:
            filter_.precompute(graph, x, rho=0.5)
            stored = {(key[3], key[4]) for key, _ in planner._chains.items()}
        assert plan.chain_demand(filter_) == stored

    def test_sweep_holds_only_what_later_cells_read(self, store_log,
                                                     monkeypatch):
        """On the 12-filter grid each chain is gone after its last
        reader, with the hits and spmm calls of a run that keeps all."""
        def counted_sweep():
            telemetry.configure()
            try:
                rows = _sweep(SWEEP_FILTERS)
                return rows, telemetry.get_metrics().snapshot()["counters"]
            finally:
                telemetry.shutdown()

        rows, released = counted_sweep()
        families = [sorted(family for _, family in cell["after"])
                    for cell in store_log]
        # gaussian (cell 6), horner (8) and clenshaw (11) live for their
        # own cell only, chebyshev for cells 9-10; monomial_adj is read
        # again by fbgnn2, the last cell.
        assert families == [["monomial_adj"]] * 8 + [
            ["chebyshev", "monomial_adj"], ["monomial_adj"],
            ["monomial_adj"], []]
        assert store_log[11]["before"] == [("pokec", "monomial_adj")]

        @contextlib.contextmanager
        def keep_all(self, label, later):
            yield

        monkeypatch.setattr(plan.BasisPlanner, "reading", keep_all)
        kept_rows, kept = counted_sweep()
        for name in ("plan.terms.hit", "plan.terms.miss",
                     "plan.spmm_avoided", "ops.spmm.calls"):
            assert released[name] == kept[name], name
        assert released["plan.terms.hit"] == 61
        assert "plan.chains.evict" not in released
        assert [row["ram_bytes"] for row in rows] == \
            [row["ram_bytes"] for row in kept_rows]

    def test_first_dataset_released_before_the_second(self, store_log):
        _sweep(("ppr", "chebyshev"), dataset_names=("cora", "chameleon"),
               scale=0.1)
        labels = [cell["label"] for cell in store_log]
        assert labels == ["cora", "cora", "chameleon", "chameleon"]
        assert store_log[1]["after"] == []
        assert store_log[2]["before"] == []

    def test_unforeseen_request_is_served_and_lru_bound(self, monkeypatch,
                                                        counters):
        graph = _random_graph(16, seed=52)
        ctx = PropagationContext(graph.normalized_adjacency(0.5))
        x = np.asarray(graph.features, dtype=np.float32)
        monkeypatch.setattr(plan, "PLAN_CHAIN_ENTRIES", 2)
        foreseen = {("g", "monomial_adj", ())}

        def families(planner):
            return sorted(key[3] for key, _ in planner._chains.items())

        with plan.plan_scope() as planner:
            with planner.reading("g", later=foreseen):
                for family in ("monomial_adj", "monomial_lap", "chebyshev"):
                    served = planner.chain_terms(ctx, x, family, (), 4)
                    streamed = plan.stream_chain(ctx, x, family, (), 4)
                    assert [t.tobytes() for t in served] == \
                        [t.tobytes() for t in streamed]
                    assert len(planner._chains) <= 2
            # Three chains through two entries: the LRU evicted one.
            assert counters()["plan.chains.evict"] == 1
            # The unforeseen chains end with their cell.
            assert families(planner) == []
            # A chain made outside any cell carries no label: no
            # release touches it.
            planner.chain_terms(ctx, x, "legendre", (), 3)
            with planner.reading("g", later=foreseen):
                planner.chain_terms(ctx, x, "monomial_adj", (), 4)
            assert families(planner) == ["legendre", "monomial_adj"]

    def test_release_never_spills(self, tmp_path, store_log, counters):
        """Resume-cached cells read nothing, so the chain the first live
        cell makes is released before the next live one; under a 1-byte
        term budget a held chain would have been shed to the spill
        directory instead."""
        def run(filters):
            config = context.RunConfig(
                blocked=True, ram_budget_mib=64,
                spill_dir=str(tmp_path / "spill"), resume=True,
                artifact_dir=str(tmp_path / "artifacts"))
            with config.open({"experiment": "efficiency"}) as opened:
                opened.tier.term_budget_bytes = 1
                rows = _sweep(filters, dataset_names=("cora",), scale=0.1)
                assert list(opened.tier.spill.root.iterdir()) == []
            return rows

        run(("ppr",))
        store_log.clear()
        rows = run(("monomial", "chebyshev", "ppr"))
        assert len(rows) == 3
        assert [cell["after"] for cell in store_log] == [[], []]
        assert store_log[1]["before"] == []
        assert counters()["pool.cells.cached"] == 1
        assert "plan.terms.spill" not in counters()
        assert "plan.chains.evict" not in counters()
