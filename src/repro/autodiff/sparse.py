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
- ``coo_gather``: explicit gather / weighted segment-sum over the CSR
  arrays. Materializes an O(mF) message buffer — exactly the memory blow-up
  the paper measures for the EI backend — and reduces it with the
  operator's segment reducer (:func:`repro.runtime.cache.segment_reducer`),
  which weighs each message where it sums it. Like ``EdgeIndex``, which
  caches its CSR/CSC pointers, the reducer is built once per operator,
  not once per hop.

Both backends accept a 1-D ``(n,)`` or 2-D ``(n, F)`` signal and add each
output row's terms in the operator's stored order, so for operands of one
dtype their values and gradients are bit-equal; what differs is the metered
memory and the time spent gathering and reducing the O(mF) buffer.

Every CSR product either backend computes — ``csr``'s ``P @ X`` and
``coo_gather``'s reducer product alike — goes through one hook,
:func:`repro.runtime.blocked.spmm_csr`, so both get the same kernel
policy: a large product of a training step runs in row tiles on the
run's spmm threads, a blocked tier tiles any product under a RAM budget,
and the rest stay a single scipy call. Row tiles add each row's terms in
the same order, so none of this moves a bit.
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
        data = _blocked.spmm_csr(csr, dense.data)
        _notify_op("spmm", flops, data.nbytes)
        product, op = _blocked.spmm_csr, "spmm"
    elif backend == "coo_gather":
        # The O(mF) intermediate is what we meter, in forward and backward.
        dtype = dense.dtype
        data, messages = _gather(csr, dense.data, dtype, training=True)
        _notify_op("spmm", flops, data.nbytes + messages.nbytes)
        op = "spmm_coo"

        def product(csr_t: sp.csr_matrix, grad: np.ndarray) -> np.ndarray:
            return _gather(csr_t, grad, dtype, training=True)[0]
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


def _gather(csr: sp.csr_matrix, x: np.ndarray, dtype: np.dtype,
            training: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Edge-wise ``csr @ x`` as ``(out, messages)``.

    ``messages[e] = x[indices[e]]`` is the ``(m, F)`` buffer, in the dtype
    of its product with the operator's data, handed to the ledger first
    in a ``training`` step. The operator's segment reducer adds each
    entry's ``data[e] · messages[e]`` to its row in stored order, and the
    sum is cast to ``dtype``. That product goes through the CSR hook (the
    reducer's row tiles are row tiles of the operator), threaded in a
    ``training`` step like ``csr``'s.
    """
    messages = np.take(x.astype(np.result_type(x, csr.data), copy=False),
                       csr.indices, axis=0)
    if training:
        _notify_alloc(messages)
    out = _blocked.spmm_csr(_cache.segment_reducer(csr), messages,
                            threaded=training)
    return out.astype(dtype, copy=False), messages


def spmm_numpy(matrix: sp.spmatrix, dense: np.ndarray, backend: str = "csr") -> np.ndarray:
    """Gradient-free sparse-dense product for precomputation stages.

    Mini-batch precomputation runs outside the autodiff graph (on "CPU", in
    the paper's terms); this helper keeps that code path free of Tensor
    bookkeeping while still supporting both backends. Its products stay
    on the calling thread: threaded, they made the training that follows
    the precompute slower than the precompute got faster (CHANGES.md).
    """
    if matrix.shape[1] != dense.shape[0]:
        raise AutodiffError(
            f"spmm shape mismatch: {matrix.shape} @ {dense.shape}"
        )
    csr = matrix.tocsr()
    if backend == "csr":
        out = _blocked.spmm_csr(csr, dense, threaded=False)
        extra = 0
    elif backend == "coo_gather":
        out, messages = _gather(csr, dense, dense.dtype, training=False)
        extra = messages.nbytes
    else:
        raise AutodiffError(f"unknown spmm backend {backend!r}")
    _notify_op("spmm", 2 * csr.nnz * _width(dense), out.nbytes + extra)
    return out
