"""Sparse-dense products: both backends, values and gradients."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.autodiff import Tensor, segment_sum, spmm, spmm_numpy
from repro.errors import AutodiffError
from repro.runtime import cache, context

BACKENDS = ["csr", "coo_gather"]


@pytest.fixture
def matrix(rng):
    dense = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.4)
    return sp.csr_matrix(dense)


class TestSpmmForward:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_dense(self, matrix, rng, backend):
        x = rng.normal(size=(6, 3))
        out = spmm(matrix, Tensor(x), backend=backend)
        np.testing.assert_allclose(out.data, matrix.toarray() @ x, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_numpy_path_matches(self, matrix, rng, backend):
        x = rng.normal(size=(6, 3)).astype(np.float32)
        np.testing.assert_allclose(
            spmm_numpy(matrix, x, backend=backend),
            matrix.toarray() @ x, atol=1e-4)

    def test_backends_agree(self, matrix, rng):
        x = rng.normal(size=(6, 4)).astype(np.float32)
        a = spmm_numpy(matrix, x, backend="csr")
        b = spmm_numpy(matrix, x, backend="coo_gather")
        np.testing.assert_allclose(a, b, atol=1e-4)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_dimensional_signal(self, matrix, rng, backend):
        x = rng.normal(size=6)
        expected = matrix.toarray() @ x
        out = spmm(matrix, Tensor(x, dtype=np.float64), backend=backend)
        assert out.shape == (6,)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        flat = spmm_numpy(matrix, x, backend=backend)
        assert flat.shape == (6,)
        np.testing.assert_allclose(flat, expected, atol=1e-12)

    def test_shape_mismatch_raises(self, matrix):
        with pytest.raises(AutodiffError):
            spmm(matrix, Tensor(np.zeros((5, 2))))

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("rows", [5, 8])
    def test_numpy_shape_mismatch_raises(self, matrix, backend, rows):
        # 8 rows used to pass silently through coo_gather, which only ever
        # indexes rows < 6.
        with pytest.raises(AutodiffError):
            spmm_numpy(matrix, np.zeros((rows, 2)), backend=backend)

    def test_mixed_precision_result_dtype(self, matrix, rng):
        # A float64 operator on a float32 signal: coo_gather answers in the
        # signal's dtype, scipy's csr product in the promoted one.
        x = rng.normal(size=(6, 3)).astype(np.float32)
        assert matrix.dtype == np.float64
        assert spmm(matrix, Tensor(x), backend="coo_gather").dtype == np.float32
        assert spmm_numpy(matrix, x, backend="coo_gather").dtype == np.float32
        assert spmm_numpy(matrix, x, backend="csr").dtype == np.float64

    def test_unknown_backend_raises(self, matrix):
        with pytest.raises(AutodiffError):
            spmm(matrix, Tensor(np.zeros((6, 2))), backend="cuda")
        with pytest.raises(AutodiffError):
            spmm_numpy(matrix, np.zeros((6, 2)), backend="cuda")


class TestSpmmBackward:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gradient_is_transpose_product(self, matrix, rng, backend):
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
        out = spmm(matrix, x, backend=backend)
        seed = rng.normal(size=out.shape)
        out.backward(seed)
        np.testing.assert_allclose(x.grad, matrix.toarray().T @ seed, atol=1e-5)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_dimensional_gradient(self, matrix, rng, backend):
        x = Tensor(rng.normal(size=6), requires_grad=True, dtype=np.float64)
        out = spmm(matrix, x, backend=backend)
        seed = rng.normal(size=6)
        out.backward(seed)
        np.testing.assert_allclose(x.grad, matrix.toarray().T @ seed, atol=1e-12)

    def test_chained_propagation_gradient(self, matrix, rng):
        # Two hops: d/dx sum(P P x) = (P^2)^T 1
        x = Tensor(rng.normal(size=(6, 2)), requires_grad=True, dtype=np.float64)
        spmm(matrix, spmm(matrix, x)).sum().backward()
        dense = matrix.toarray()
        expected = (dense @ dense).T @ np.ones((6, 2))
        np.testing.assert_allclose(x.grad, expected, atol=1e-5)

    def test_no_grad_through_constant(self, matrix, rng):
        x = Tensor(rng.normal(size=(6, 2)))
        out = spmm(matrix, x)
        assert not out.requires_grad


def _operator(rng, shape, density, dtype=np.float32):
    """A random CSR operator with empty rows and unsorted column indices."""
    dense = rng.normal(size=shape) * (rng.random(shape) < density)
    dense[::3] = 0.0
    csr = sp.csr_matrix(dense.astype(dtype))
    order = np.concatenate([
        start + rng.permutation(stop - start)
        for start, stop in zip(csr.indptr[:-1], csr.indptr[1:])
    ]).astype(np.intp)
    return sp.csr_matrix(
        (csr.data[order], csr.indices[order], csr.indptr), shape=shape)


class TestBackendsBitEqual:
    """``coo_gather`` adds each row's terms in the order ``csr`` stores them."""

    @pytest.mark.parametrize("shape, density", [
        ((40, 40), 0.3), ((30, 50), 0.2), ((50, 30), 0.2), ((12, 12), 0.0),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_and_gradient(self, rng, shape, density, dtype):
        matrix = _operator(rng, shape, density, dtype)
        signal = rng.normal(size=(shape[1], 5)).astype(dtype)
        seed = rng.normal(size=(shape[0], 5))
        results = {}
        for backend in BACKENDS:
            x = Tensor(signal, requires_grad=True, dtype=dtype)
            out = spmm(matrix, x, backend=backend)
            out.backward(seed)
            results[backend] = (out.data, x.grad,
                                spmm_numpy(matrix, signal, backend=backend))
        for csr, coo in zip(results["csr"], results["coo_gather"]):
            assert csr.dtype == coo.dtype == dtype
            assert csr.shape == coo.shape
            assert csr.tobytes() == coo.tobytes()

    def test_message_buffer_still_metered(self, small_graph, signal):
        """The O(mF) buffer reaches the ledger in forward and in backward.

        Both numbers were captured at the commit before the scatter became
        a selector product: five allocations (leaf, messages, output, the
        ``sum`` scalar, backward's gathered buffer), peaking in backward
        with the leaf, the output, the scalar and one ``(m, F)`` buffer
        live: 2 · 6504 + 4 + 1055 · 6 · 4 bytes.
        """
        operator = small_graph.normalized_adjacency()
        telemetry.configure()
        try:
            x = Tensor(signal, requires_grad=True)
            spmm(operator, x, backend="coo_gather").sum().backward()
            ledger = telemetry.get_ledger()
            assert (ledger.alloc_count, ledger.peak_bytes) == (5, 38332)
        finally:
            telemetry.shutdown()


def _segments(index: np.ndarray, size: int) -> sp.csr_matrix:
    """A ``(size, m)`` operator whose row ``b`` holds the entries ``e`` with
    ``index[e] == b``, in ascending ``e`` (the order ``np.add.at`` adds)."""
    order = np.argsort(index, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(index, minlength=size))])
    return sp.csr_matrix((np.ones(len(index), dtype=np.float32), order, indptr),
                         shape=(size, len(index)))


class TestSegmentSum:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_unbuffered_add(self, data):
        size = data.draw(st.integers(0, 12), label="size")
        count = data.draw(st.integers(0, 40) if size else st.just(0), label="m")
        index = np.array(data.draw(
            st.lists(st.integers(0, max(size - 1, 0)),
                     min_size=count, max_size=count), label="index"), dtype=np.int64)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        columns = data.draw(st.integers(1, 3), label="columns")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        values = (np.random.default_rng(seed).normal(size=(count, columns))
                  * 10.0 ** data.draw(st.integers(-3, 3))).astype(dtype)

        reference = np.zeros((size, columns), dtype=dtype)
        np.add.at(reference, index, values)
        segments = _segments(index, size)
        result = segment_sum(segments, values[segments.indices])
        assert result.dtype == reference.dtype
        assert result.shape == reference.shape
        assert result.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("trailing", [(), (4,)])
    def test_trailing_axes(self, rng, trailing):
        index = rng.integers(0, 5, size=30)
        values = rng.normal(size=(30,) + trailing).astype(np.float32)
        reference = np.zeros((7,) + trailing, dtype=np.float32)
        np.add.at(reference, index, values)
        segments = _segments(index, 7)
        result = segment_sum(segments, values[segments.indices])
        assert result.shape == reference.shape
        assert result.tobytes() == reference.tobytes()
        empty = segment_sum(_segments(index[:0], 7), values[:0])
        assert empty.shape == reference.shape and not empty.any()


class TestCachedSegments:
    """``coo_gather`` derives its selector and transpose once per operator."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        for name in ("_build_selector", "materialize_transpose"):
            def counted(matrix, _name=name, _real=getattr(cache, name)):
                calls.append(_name)
                return _real(matrix)
            monkeypatch.setattr(cache, name, counted)
        return calls

    @staticmethod
    def _fit(operator, signal, seed):
        x = Tensor(signal, requires_grad=True)
        out = spmm(operator, x, backend="coo_gather")
        out.backward(seed)
        return out.data.tobytes(), x.grad.tobytes()

    def test_second_pass_builds_nothing(self, rng, builds):
        operator = _operator(rng, (30, 30), 0.2)   # unsorted: Pᵀ is distinct
        signal = rng.normal(size=(30, 4)).astype(np.float32)
        seed = rng.normal(size=(30, 4))
        first = self._fit(operator, signal, seed)
        assert sorted(builds) == ["_build_selector", "_build_selector",
                                  "materialize_transpose"]
        builds.clear()
        assert self._fit(operator, signal, seed) == first
        assert builds == []

        operator.data *= np.float32(2.0)   # an in-place edit rebuilds
        edited = self._fit(operator, signal, seed)
        assert "materialize_transpose" in builds
        assert "_build_selector" in builds
        with context.using(cache=False):
            assert self._fit(operator, signal, seed) == edited
        expected = operator.toarray() @ signal
        np.testing.assert_allclose(
            np.frombuffer(edited[0], dtype=np.float32).reshape(30, 4),
            expected, rtol=1e-5, atol=1e-5)

    def test_symmetric_operator_needs_one_selector(self, small_graph, signal,
                                                   builds):
        operator = small_graph.normalized_adjacency(0.5)
        seed = np.ones_like(signal)
        first = self._fit(operator, signal, seed)
        # The transpose is built once to find it equal, then not kept.
        assert builds == ["_build_selector", "materialize_transpose"]
        assert cache.transpose_csr(operator) is operator
        builds.clear()
        assert self._fit(operator, signal, seed) == first
        assert builds == []
        with context.using(cache=False):
            assert self._fit(operator, signal, seed) == first
