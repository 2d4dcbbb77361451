"""Sparse-dense products with gradients: the graph-propagation primitive.

Graph propagation in every spectral filter is the product of a constant
``n × n`` sparse matrix (the normalized adjacency or Laplacian) with a dense
``n × F`` representation. The sparse operand never needs a gradient — the
graph is data, not a parameter — so only the dense-side gradient
``Pᵀ · grad_out`` is implemented.

Two backends are provided, mirroring the paper's Table 6 comparison between
PyG's ``torch.sparse`` (SP) and ``EdgeIndex`` (EI) backends:

- ``csr``: scipy CSR matmul. Fast, O(m) index memory.
- ``coo_gather``: explicit gather / multiply / scatter-add over the edge
  list. Materializes an O(mF) message buffer — exactly the memory blow-up
  the paper measures for the EI backend — and reduces it with
  :func:`scatter_add`, a 0/1 selector product that sums every target row
  in edge order.

Both backends accept a 1-D ``(n,)`` or 2-D ``(n, F)`` signal and add each
output row's terms in the operator's stored order, so for operands of one
dtype their values and gradients are bit-equal; what differs is the metered
memory and the time spent gathering and reducing the O(mF) buffer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..errors import AutodiffError
from ..runtime import blocked as _blocked
from ..runtime import cache as _cache
from .tensor import Tensor, _notify_alloc, _notify_op


def spmm(matrix: sp.spmatrix, dense: Tensor, backend: str = "csr") -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``P @ X``.

    Parameters
    ----------
    matrix:
        ``(n, n)`` scipy sparse matrix, treated as a constant.
    dense:
        ``(n, F)`` or ``(n,)`` tensor; gradient flows through this operand.
    backend:
        ``"csr"`` (scipy matmul) or ``"coo_gather"`` (edge-wise gather /
        scatter, the memory-hungrier PyG-EdgeIndex analogue).
    """
    if matrix.shape[1] != dense.shape[0]:
        raise AutodiffError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    if backend == "csr":
        # All CSR products route through the blocked tier hook: a no-op
        # `csr @ dense` without an active blocked scope, row-tiled (and
        # bit-identical, since CSR rows accumulate independently) with one.
        csr = matrix.tocsr()
        data = _blocked.spmm_csr(csr, dense.data)
        _notify_op("spmm", 2 * csr.nnz * _width(dense), data.nbytes)
        csr_t: Optional[sp.csr_matrix] = None

        def backward(grad: np.ndarray):
            # The sparse operand is constant, so its transpose is too: the
            # process-wide cache materializes Pᵀ once per matrix instead of
            # once per forward closure (cache.spmm_t.* counters show the
            # traffic). With caching disabled the seed behaviour returns:
            # one materialization per closure, memoized across multiple
            # backward passes through the same node.
            nonlocal csr_t
            if _cache.is_enabled():
                return (_blocked.spmm_csr(_cache.transpose_csr(csr), grad),)
            if csr_t is None:
                csr_t = _cache.materialize_transpose(csr)
            return (_blocked.spmm_csr(csr_t, grad),)

        return Tensor._make(np.asarray(data), (dense,), backward, "spmm")
    if backend == "coo_gather":
        return _spmm_coo_gather(matrix, dense)
    raise AutodiffError(f"unknown spmm backend {backend!r}")


def _width(dense) -> int:
    return dense.shape[1] if dense.ndim > 1 else 1


def scatter_add(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``size`` bins: ``out[index[e]] += values[e]``.

    ``index`` is a 1-D array of non-negative bin numbers, one per row of the
    ``(m,)`` or ``(m, F)`` array ``values``; bins may repeat or stay empty.
    The sum is taken as the product of the 0/1 selector matrix
    ``S[index[e], e] = 1`` with ``values``: scipy's CSR kernel accumulates
    each output row sequentially in stored (= ``e``) order and multiplying by
    1 is exact, so the result is bit-identical to numpy's unbuffered
    ``add.at`` on zeros at a tenth of that element-at-a-time loop's cost.
    """
    m = len(index)
    selector = sp.csr_matrix(
        (np.ones(m, dtype=values.dtype), (index, np.arange(m))), shape=(size, m))
    return selector @ values


def _messages(dense: np.ndarray, source: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The per-edge buffer ``vals[e] * dense[source[e]]``, shape ``(m, F)``."""
    messages = np.take(dense, source, axis=0)
    weights = vals[:, None] if dense.ndim > 1 else vals
    # Weight in place unless the operator's dtype widens the product.
    fits = np.result_type(messages, vals) == messages.dtype
    return np.multiply(messages, weights, out=messages if fits else None)


def _spmm_coo_gather(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Edge-list propagation: gather source rows, weight, scatter to targets.

    Bit-equal to the CSR backend but allocates an ``(m, F)`` message
    buffer, reproducing the O(mF) footprint of edge-indexed
    message-passing backends.
    """
    coo = matrix.tocoo()
    rows, cols, vals = coo.row, coo.col, coo.data

    messages = _messages(dense.data, cols, vals)
    _notify_alloc(messages)  # the O(mF) intermediate is what we meter
    data = scatter_add(rows, messages, matrix.shape[0]).astype(
        dense.dtype, copy=False)
    _notify_op("spmm", 2 * len(vals) * _width(dense),
               data.nbytes + messages.nbytes)

    def backward(grad: np.ndarray):
        gathered = _messages(grad, rows, vals)
        _notify_alloc(gathered)
        out = scatter_add(cols, gathered, dense.shape[0])
        return (out.astype(dense.dtype, copy=False),)

    return Tensor._make(data, (dense,), backward, "spmm_coo")


def spmm_numpy(matrix: sp.spmatrix, dense: np.ndarray, backend: str = "csr") -> np.ndarray:
    """Gradient-free sparse-dense product for precomputation stages.

    Mini-batch precomputation runs outside the autodiff graph (on "CPU", in
    the paper's terms); this helper keeps that code path free of Tensor
    bookkeeping while still supporting both backends.
    """
    if matrix.shape[1] != dense.shape[0]:
        raise AutodiffError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    if backend == "csr":
        csr = matrix.tocsr()
        out = _blocked.spmm_csr(csr, dense)
        _notify_op("spmm", 2 * csr.nnz * _width(dense), out.nbytes)
        return out
    if backend == "coo_gather":
        coo = matrix.tocoo()
        messages = _messages(dense, coo.col, coo.data)
        out = scatter_add(coo.row, messages, matrix.shape[0]).astype(
            dense.dtype, copy=False)
        _notify_op("spmm", 2 * coo.nnz * _width(dense),
                   out.nbytes + messages.nbytes)
        return out
    raise AutodiffError(f"unknown spmm backend {backend!r}")
