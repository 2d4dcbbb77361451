"""The sparse-compute cache layer must be *invisible*.

`repro.runtime.cache` memoizes the spmm-backward transpose and the
per-graph normalized operators. These tests prove the three contracts the
layer makes:

1. **Bit-identity** (hypothesis property tests): cached and uncached
   paths — ``spmm`` forward/backward, ``normalized_adjacency``,
   ``laplacian`` — produce byte-for-byte identical arrays across random
   graphs, ρ values, and self-loop settings.
2. **Invalidation**: mutating a cached matrix in place never serves a
   stale transpose.
3. **Boundedness**: every cache is a bounded LRU; entry counts never
   exceed capacity no matter the access sequence, and dead matrices are
   purged.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor
from repro.autodiff.sparse import spmm
from repro.graph import Graph
from repro.runtime import cache

from .test_autodiff_sparse import _operator


@pytest.fixture(autouse=True)
def _clean_cache_state():
    """Isolate tests from each other's global transpose-cache traffic."""
    cache.set_enabled(True)
    cache.clear_transpose_cache()
    yield
    cache.set_enabled(True)
    cache.clear_transpose_cache()


def _random_graph(n: int, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = max(n - 1, 1)
    edges = np.stack([rng.integers(0, n, size=num_edges),
                      rng.integers(0, n, size=num_edges)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    if len(edges) == 0:
        edges = np.array([[0, n - 1]]) if n > 1 else np.zeros((0, 2), int)
    features = rng.normal(size=(n, 3)).astype(np.float32)
    return Graph.from_edges(n, edges, features=features, name=f"rand{seed}")


def _random_csr(n: int, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    matrix = sp.random(n, n, density=0.3, format="csr",
                       random_state=np.random.RandomState(seed),
                       dtype=np.float64).astype(np.float32)
    if matrix.nnz == 0:
        matrix = sp.csr_matrix(
            ([np.float32(rng.normal())], ([0], [n - 1])), shape=(n, n))
    return matrix


# ----------------------------------------------------------------------
# LRUCache mechanics
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_counts(self):
        lru = cache.LRUCache(4)
        assert lru.get("a") is cache.MISSING
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.stats()["hits"] == 1
        assert lru.stats()["misses"] == 1

    def test_capacity_bound_and_eviction_order(self):
        lru = cache.LRUCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")            # refresh "a" → "b" becomes LRU
        lru.put("c", 3)
        assert len(lru) == 2
        assert "b" not in lru
        assert lru.get("a") == 1
        assert lru.stats()["evictions"] == 1

    def test_get_or_compute_calls_factory_once(self):
        lru = cache.LRUCache(4)
        calls = []
        for _ in range(3):
            value = lru.get_or_compute("k", lambda: calls.append(1) or 42)
            assert value == 42
        assert len(calls) == 1

    def test_validate_rejection_is_a_miss_and_drops_entry(self):
        lru = cache.LRUCache(4)
        lru.put("k", "stale")
        assert lru.get("k", validate=lambda v: False) is cache.MISSING
        assert "k" not in lru
        assert lru.stats()["misses"] == 1

    def test_clear_resets_entries_and_stats(self):
        lru = cache.LRUCache(2)
        lru.put("a", 1)
        lru.get("a")
        lru.get("zzz")
        lru.clear()
        stats = lru.stats()
        assert stats == {"entries": 0, "capacity": 2, "hits": 0,
                         "misses": 0, "evictions": 0}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            cache.LRUCache(0)

    @settings(max_examples=30, deadline=None)
    @given(capacity=st.integers(1, 8),
           keys=st.lists(st.integers(0, 20), max_size=60))
    def test_property_entry_count_never_exceeds_capacity(self, capacity, keys):
        lru = cache.LRUCache(capacity)
        for key in keys:
            if lru.get(key) is cache.MISSING:
                lru.put(key, key * 2)
            assert len(lru) <= capacity
        for key in keys[-capacity:]:
            # the most recent `capacity` distinct puts must still resolve
            if len(set(keys[-capacity:])) <= capacity:
                assert lru.get(key) == key * 2


# ----------------------------------------------------------------------
# mutation fingerprint
# ----------------------------------------------------------------------
class TestMatrixToken:
    def test_stable_across_calls(self):
        matrix = _random_csr(12, seed=0)
        assert cache.matrix_token(matrix) == cache.matrix_token(matrix)

    def test_changes_on_value_mutation(self):
        matrix = _random_csr(12, seed=1)
        before = cache.matrix_token(matrix)
        matrix.data[0] += 1.0
        assert cache.matrix_token(matrix) != before

    def test_changes_on_structure_change(self):
        matrix = _random_csr(12, seed=2)
        before = cache.matrix_token(matrix)
        matrix.setdiag(1.0)
        assert cache.matrix_token(matrix) != before


# ----------------------------------------------------------------------
# transpose cache
# ----------------------------------------------------------------------
class TestTransposeCache:
    def test_correct_and_served_from_cache(self):
        matrix = _random_csr(16, seed=3)
        first = cache.transpose_csr(matrix)
        second = cache.transpose_csr(matrix)
        assert first is second
        assert cache.transpose_build_count() == 1
        expected = matrix.T.tocsr()
        np.testing.assert_array_equal(first.toarray(), expected.toarray())

    def test_mutation_invalidates(self):
        matrix = _random_csr(16, seed=4)
        stale = cache.transpose_csr(matrix).toarray().copy()
        matrix.data *= 2.0
        fresh = cache.transpose_csr(matrix)
        assert cache.transpose_build_count() == 2
        np.testing.assert_array_equal(fresh.toarray(), matrix.T.toarray())
        assert not np.array_equal(fresh.toarray(), stale)

    def test_disabled_bypasses_cache(self):
        matrix = _random_csr(16, seed=5)
        with cache.caches_disabled():
            a = cache.transpose_csr(matrix)
            b = cache.transpose_csr(matrix)
        assert a is not b
        assert cache.transpose_build_count() == 2
        assert cache.transpose_cache_stats()["entries"] == 0

    def test_bounded_entries_with_eviction(self):
        matrices = [_random_csr(6, seed=100 + i)
                    for i in range(cache.TRANSPOSE_CACHE_ENTRIES + 5)]
        for matrix in matrices:
            cache.transpose_csr(matrix)
        stats = cache.transpose_cache_stats()
        assert stats["entries"] <= cache.TRANSPOSE_CACHE_ENTRIES
        assert stats["evictions"] >= 5

    def test_dead_matrix_entry_purged(self):
        matrix = _random_csr(10, seed=6)
        cache.transpose_csr(matrix)
        assert cache.transpose_cache_stats()["entries"] == 1
        del matrix
        gc.collect()
        assert cache.transpose_cache_stats()["entries"] == 0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 10_000),
           scale=st.floats(1.5, 4.0))
    def test_property_mutation_never_serves_stale(self, n, seed, scale):
        cache.clear_transpose_cache()
        matrix = _random_csr(n, seed=seed)
        cache.transpose_csr(matrix)
        matrix.data *= np.float32(scale)
        refreshed = cache.transpose_csr(matrix).toarray()
        np.testing.assert_array_equal(refreshed, matrix.T.toarray())


@st.composite
def _edge_graphs(draw) -> Graph:
    """``Graph.from_edges`` on 1–30 nodes; nodes no edge touches stay
    isolated."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    edges = np.array([p for p in pairs if p[0] != p[1]],
                     dtype=np.int64).reshape(-1, 2)
    return Graph.from_edges(n, edges)


def _same_bytes(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                     (a.data, b.data)))


class TestSymmetricTranspose:
    """A ρ = ½ operator is bytewise its own transpose; nothing else is
    served as one."""

    @settings(max_examples=60, deadline=None)
    @given(graph=_edge_graphs())
    def test_half_normalized_operators_are_their_own_transpose(self, graph):
        for operator in (graph.normalized_adjacency(0.5),
                         graph.laplacian(0.5)):
            assert cache.transpose_csr(operator) is operator
            assert cache.transpose_csr(operator) is operator  # the hit path

    @settings(max_examples=60, deadline=None)
    @given(graph=_edge_graphs(), rho=st.sampled_from([0.0, 1.0]))
    def test_other_rho_gets_a_correct_transpose(self, graph, rho):
        operator = graph.normalized_adjacency(rho)
        reference = operator.T.tocsr()
        result = cache.transpose_csr(operator)
        assert _same_bytes(result, reference)
        # Only an operator with its transpose's exact bytes (a regular
        # graph under ρ = 1, say) may be served as its own transpose.
        assert (result is operator) == _same_bytes(operator, reference)

    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_irregular_graph_gets_a_distinct_transpose(self, rho):
        path = Graph.from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
        operator = path.normalized_adjacency(rho)
        result = cache.transpose_csr(operator)
        assert result is not operator
        assert _same_bytes(result, operator.T.tocsr())

    @pytest.mark.parametrize("shape", [(40, 40), (30, 50), (50, 30)])
    def test_unsorted_and_rectangular_operators(self, rng, shape):
        operator = _operator(rng, shape, 0.3)
        result = cache.transpose_csr(operator)
        assert result is not operator
        assert _same_bytes(result, operator.T.tocsr())

    def test_symmetric_values_with_unsorted_indices(self):
        symmetric = _random_graph(20, seed=15).normalized_adjacency(0.5)
        order = np.concatenate([   # each row's entries reversed
            np.arange(start, stop)[::-1]
            for start, stop in zip(symmetric.indptr[:-1],
                                   symmetric.indptr[1:])]).astype(np.intp)
        shuffled = sp.csr_matrix(
            (symmetric.data[order], symmetric.indices[order],
             symmetric.indptr), shape=symmetric.shape)
        result = cache.transpose_csr(shuffled)
        assert result is not shuffled
        assert _same_bytes(result, symmetric)


# ----------------------------------------------------------------------
# normalization memo
# ----------------------------------------------------------------------
class TestNormalizationMemo:
    def test_hit_returns_same_object(self):
        graph = _random_graph(20, seed=7)
        a = graph.normalized_adjacency(0.5)
        b = graph.normalized_adjacency(0.5)
        assert a is b
        stats = graph.norm_memo_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_laplacian_memoized(self):
        graph = _random_graph(20, seed=8)
        assert graph.laplacian(0.5) is graph.laplacian(0.5)

    def test_distinct_keys_distinct_entries(self):
        graph = _random_graph(20, seed=9)
        a = graph.normalized_adjacency(0.5, self_loops=True)
        b = graph.normalized_adjacency(0.5, self_loops=False)
        c = graph.normalized_adjacency(1.0, self_loops=True)
        assert a is not b and a is not c
        assert graph.norm_memo_stats()["entries"] == 3

    def test_disabled_recomputes_equal_values(self):
        graph = _random_graph(20, seed=10)
        cached = graph.normalized_adjacency(0.5)
        with cache.caches_disabled():
            fresh = graph.normalized_adjacency(0.5)
        assert fresh is not cached
        np.testing.assert_array_equal(fresh.toarray(), cached.toarray())

    def test_lru_bound_over_rho_sweep(self):
        graph = _random_graph(16, seed=11)
        rhos = np.linspace(0.0, 1.0, cache.NORM_MEMO_ENTRIES * 2 + 1)
        for rho in rhos:
            graph.normalized_adjacency(float(rho))
        assert graph.norm_memo_stats()["entries"] <= cache.NORM_MEMO_ENTRIES

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 10_000),
           rho=st.floats(0.0, 1.0), self_loops=st.booleans())
    def test_property_normalized_adjacency_bit_identical(self, n, seed, rho,
                                                         self_loops):
        """Memoized and bypass paths agree byte-for-byte on CSR payloads."""
        graph = _random_graph(n, seed=seed)
        cached = graph.normalized_adjacency(rho, self_loops)
        cached_again = graph.normalized_adjacency(rho, self_loops)
        with cache.caches_disabled():
            fresh = graph.normalized_adjacency(rho, self_loops)
        assert cached is cached_again
        np.testing.assert_array_equal(cached.data, fresh.data)
        np.testing.assert_array_equal(cached.indices, fresh.indices)
        np.testing.assert_array_equal(cached.indptr, fresh.indptr)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 10_000),
           rho=st.floats(0.0, 1.0))
    def test_property_laplacian_bit_identical(self, n, seed, rho):
        graph = _random_graph(n, seed=seed)
        cached = graph.laplacian(rho)
        with cache.caches_disabled():
            fresh = graph.laplacian(rho)
        np.testing.assert_array_equal(cached.toarray(), fresh.toarray())


# ----------------------------------------------------------------------
# spmm: cached vs uncached forward/backward bit-identity
# ----------------------------------------------------------------------
class TestSpmmCacheInvisibility:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 24), width=st.integers(1, 5),
           seed=st.integers(0, 10_000))
    def test_property_forward_backward_bit_identical(self, n, width, seed):
        """Gradients through cached spmm == gradients with caches bypassed."""
        cache.clear_transpose_cache()
        matrix = _random_csr(n, seed=seed)
        rng = np.random.default_rng(seed)
        payload = rng.normal(size=(n, width)).astype(np.float32)
        weight = rng.normal(size=(n, width)).astype(np.float32)

        def run() -> tuple:
            x = Tensor(payload.copy(), requires_grad=True)
            out = spmm(matrix, x)
            (out * Tensor(weight)).sum().backward()
            return out.data, x.grad

        cached_out, cached_grad = run()
        with cache.caches_disabled():
            plain_out, plain_grad = run()

        np.testing.assert_array_equal(cached_out, plain_out)
        np.testing.assert_array_equal(cached_grad, plain_grad)

    def test_repeated_backward_builds_transpose_once(self):
        matrix = _random_csr(20, seed=12)
        for _ in range(6):
            x = Tensor(np.ones((20, 3), dtype=np.float32), requires_grad=True)
            spmm(matrix, x).sum().backward()
        assert cache.transpose_build_count() == 1

    def test_disabled_builds_once_per_closure(self):
        """Seed behaviour under --no-cache: one build per forward closure."""
        matrix = _random_csr(20, seed=13)
        with cache.caches_disabled():
            for _ in range(3):
                x = Tensor(np.ones((20, 3), dtype=np.float32),
                           requires_grad=True)
                spmm(matrix, x).sum().backward()
        assert cache.transpose_build_count() == 3


# ----------------------------------------------------------------------
# telemetry counter names (pinned: dashboards and the CI gate read these)
# ----------------------------------------------------------------------
class TestCounterNames:
    def test_cache_and_op_counter_names(self):
        telemetry.configure()
        try:
            graph = _random_graph(18, seed=14)
            graph.normalized_adjacency(0.5)
            graph.normalized_adjacency(0.5)
            matrix = graph.normalized_adjacency(0.5)
            x = Tensor(np.ones((18, 2), dtype=np.float32), requires_grad=True)
            out = spmm(matrix, x)
            (out * 2.0).sum().backward()
            spmm(matrix, Tensor(np.ones((18, 2), dtype=np.float32),
                                requires_grad=True)).sum().backward()
            counters = telemetry.get_metrics().snapshot()["counters"]
        finally:
            telemetry.shutdown()
        assert counters["cache.norm_adj.miss"] == 1
        assert counters["cache.norm_adj.hit"] == 2
        assert counters["cache.spmm_t.miss"] == 1
        assert counters["cache.spmm_t.hit"] == 1
        assert counters["ops.spmm.transpose_builds"] == 1
        assert counters["ops.spmm.transpose_bytes"] > 0
        # elementwise ops feed the same hook (ROADMAP coverage gap closed)
        for name in ("ops.ewise.calls", "ops.ewise.flops", "ops.ewise.bytes"):
            assert counters[name] > 0
