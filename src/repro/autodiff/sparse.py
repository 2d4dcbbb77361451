"""Sparse-dense products with gradients: the graph-propagation primitive.

Graph propagation in every spectral filter is the product of a constant
``n × n`` sparse matrix (the normalized adjacency or Laplacian) with a dense
``n × F`` representation. The sparse operand never needs a gradient — the
graph is data, not a parameter — so only the dense-side gradient
``Pᵀ · grad_out`` is implemented: each backend's backward is its own
forward applied to the cached transpose (:func:`repro.runtime.cache.
transpose_csr`), which is the operator itself when it is symmetric.

Two backends are provided, mirroring the paper's Table 6 comparison between
PyG's ``torch.sparse`` (SP) and ``EdgeIndex`` (EI) backends:

- ``csr``: scipy CSR matmul. Fast, O(m) index memory.
- ``coo_gather``: explicit gather / multiply / segment-sum over the CSR
  arrays. Materializes an O(mF) message buffer — exactly the memory blow-up
  the paper measures for the EI backend — and reduces it with
  :func:`segment_sum`, the product with the operator's 0/1 row-segment
  selector. Like ``EdgeIndex``, which caches its CSR/CSC pointers, the
  selector is built once per operator, not once per hop.

Both backends accept a 1-D ``(n,)`` or 2-D ``(n, F)`` signal and add each
output row's terms in the operator's stored order, so for operands of one
dtype their values and gradients are bit-equal; what differs is the metered
memory and the time spent gathering and reducing the O(mF) buffer.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..errors import AutodiffError
from ..runtime import blocked as _blocked
from ..runtime import cache as _cache
from ..runtime import context as _context
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
        segment-sum, the memory-hungrier PyG-EdgeIndex analogue).
    """
    if matrix.shape[1] != dense.shape[0]:
        raise AutodiffError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    csr = matrix.tocsr()
    flops = 2 * csr.nnz * _width(dense)
    if backend == "csr":
        # All CSR products route through the blocked tier hook: a no-op
        # `csr @ dense` without a blocked tier, row-tiled (and
        # bit-identical, since CSR rows accumulate independently) with one.
        data = _blocked.spmm_csr(csr, dense.data)
        _notify_op("spmm", flops, data.nbytes)
        product, op = _blocked.spmm_csr, "spmm"
    elif backend == "coo_gather":
        # The O(mF) intermediate is what we meter, in forward and backward.
        dtype = dense.dtype
        data, messages = _gather(csr, dense.data, dtype, meter=True)
        _notify_op("spmm", flops, data.nbytes + messages.nbytes)
        op = "spmm_coo"

        def product(csr_t: sp.csr_matrix, grad: np.ndarray) -> np.ndarray:
            return _gather(csr_t, grad, dtype, meter=True)[0]
    else:
        raise AutodiffError(f"unknown spmm backend {backend!r}")
    csr_t: Optional[sp.csr_matrix] = None

    def backward(grad: np.ndarray):
        # The sparse operand is constant, so its transpose is too: the
        # process-wide cache materializes Pᵀ once per matrix — none for a
        # symmetric one — instead of once per forward closure
        # (cache.spmm_t.* counters show the traffic). With caching disabled
        # the seed behaviour returns: one materialization per closure,
        # memoized across multiple backward passes through the same node.
        nonlocal csr_t
        if _context.current().config.cache:
            return (product(_cache.transpose_csr(csr), grad),)
        if csr_t is None:
            csr_t = _cache.materialize_transpose(csr)
        return (product(csr_t, grad),)

    return Tensor._make(np.asarray(data), (dense,), backward, op)


def _width(dense) -> int:
    return dense.shape[1] if dense.ndim > 1 else 1


def segment_sum(csr: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Row ``i`` of the result sums ``values[indptr[i]:indptr[i + 1]]``.

    ``values`` is ``(nnz,)`` or ``(nnz, F)``, one row per stored entry of
    ``csr``; empty rows sum to zero. The sum is the product of the
    operator's cached boolean selector (:func:`repro.runtime.cache.
    segment_selector`) with ``values``: scipy's CSR kernel accumulates each
    output row sequentially in stored order in ``values``' dtype and
    multiplying by 1 is exact, so the result is bit-identical to numpy's
    unbuffered ``add.at`` over the entries' row numbers.
    """
    return _cache.segment_selector(csr) @ values


def _gather(csr: sp.csr_matrix, x: np.ndarray, dtype: np.dtype,
            meter: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Edge-wise ``csr @ x`` as ``(out, messages)``.

    ``messages[e] = data[e] · x[indices[e]]`` is the ``(m, F)`` buffer,
    handed to the ledger first when ``meter``; :func:`segment_sum` reduces
    it to ``out``, cast to ``dtype``.
    """
    messages = np.take(x, csr.indices, axis=0)
    weights = csr.data[:, None] if x.ndim > 1 else csr.data
    # Weight in place unless the operator's dtype widens the product.
    fits = np.result_type(messages, csr.data) == messages.dtype
    messages = np.multiply(messages, weights, out=messages if fits else None)
    if meter:
        _notify_alloc(messages)
    return segment_sum(csr, messages).astype(dtype, copy=False), messages


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
    csr = matrix.tocsr()
    if backend == "csr":
        out = _blocked.spmm_csr(csr, dense)
        extra = 0
    elif backend == "coo_gather":
        out, messages = _gather(csr, dense, dense.dtype, meter=False)
        extra = messages.nbytes
    else:
        raise AutodiffError(f"unknown spmm backend {backend!r}")
    _notify_op("spmm", 2 * csr.nnz * _width(dense), out.nbytes + extra)
    return out
