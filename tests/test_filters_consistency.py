"""The load-bearing filter invariants, checked for all 27 filters.

1. **Spectral consistency**: propagating a signal through the filter's
   polynomial recurrence equals exact spectral filtering
   ``U · diag(g(λ)) · Uᵀ x`` with the filter's own ``response(λ)`` — the
   polynomial and spectral views must agree to numerical precision.
2. **Path consistency**: full-batch ``forward`` and mini-batch
   ``precompute`` + ``batch_combine`` compute the same function.
3. **Backend consistency**: the csr and coo_gather backends agree.
4. **Channel layout**: the channel tensor precompute fills term by term is
   byte-identical to stacking (and, for banks, concatenating) the terms.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.errors import FilterError
from repro.filters import FILTER_NAMES, REGISTRY, make_filter
from repro.filters.bank import FilterBank
from repro.filters.base import PropagationContext
from repro.spectral import laplacian_eigendecomposition

K = 8

#: Exact spectral equivalence holds for every filter whose response is not
#: signal-dependent (OptBasis) and whose fusion is a sum (concat banks
#: return stacked channels, checked separately below).
SPECTRAL_EXACT = [
    n for n in FILTER_NAMES if n not in ("optbasis", "fbgnn1", "acmgnn1")
]


def _perturbed_params(filter_, rng, scale=0.3):
    spec = filter_.parameter_spec()
    if not spec:
        return None
    return {
        name: (s.init + scale * rng.normal(size=s.shape)).astype(np.float32)
        for name, s in spec.items()
    }


@pytest.mark.parametrize("name", SPECTRAL_EXACT)
def test_propagation_matches_spectral_filtering(small_graph, name):
    """g(L̃)x computed by recurrences == U g(Λ) Uᵀ x with the same params."""
    rng = np.random.default_rng(11)
    filter_ = make_filter(name, num_hops=K, num_features=1)
    params = _perturbed_params(filter_, rng)
    x = rng.normal(size=(small_graph.num_nodes, 1)).astype(np.float32)

    ctx = PropagationContext.for_graph(small_graph, rho=0.5)
    propagated = np.asarray(filter_.forward(ctx, x, params), dtype=np.float64)

    eigenvalues, eigenvectors = laplacian_eigendecomposition(small_graph)
    response = filter_.response(eigenvalues, params)
    expected = eigenvectors @ (response[:, None] * (eigenvectors.T @ x))

    scale = max(np.abs(expected).max(), 1.0)
    np.testing.assert_allclose(propagated, expected, atol=2e-3 * scale)


@pytest.mark.parametrize("name", ["fbgnn1", "acmgnn1"])
def test_concat_bank_channels_match_spectral(small_graph, name):
    """Each concat-bank channel independently satisfies the equivalence."""
    rng = np.random.default_rng(11)
    bank = make_filter(name, num_hops=K)
    params = _perturbed_params(bank, rng)
    x = rng.normal(size=(small_graph.num_nodes, 1)).astype(np.float32)
    eigenvalues, eigenvectors = laplacian_eigendecomposition(small_graph)
    responses = bank.channel_responses(eigenvalues, params)
    gamma = params["gamma"]
    ctx = PropagationContext.for_graph(small_graph, rho=0.5)
    stacked = np.asarray(bank.forward(ctx, x, params), dtype=np.float64)
    for q in range(len(bank.channels)):
        expected = gamma[q] * (
            eigenvectors @ (responses[q][:, None] * (eigenvectors.T @ x)))
        scale = max(np.abs(expected).max(), 1.0)
        np.testing.assert_allclose(stacked[:, q:q + 1], expected,
                                   atol=2e-3 * scale)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_full_batch_equals_minibatch_path(small_graph, signal, name):
    """forward() == precompute() + batch_combine() for the same params."""
    rng = np.random.default_rng(5)
    filter_ = make_filter(name, num_hops=5, num_features=signal.shape[1])
    params = _perturbed_params(filter_, rng)

    ctx = PropagationContext.for_graph(small_graph, rho=0.5)
    full = np.asarray(filter_.forward(ctx, signal, params), dtype=np.float64)

    channels = filter_.precompute(small_graph, signal, rho=0.5)
    tensor_params = (
        {k: Tensor(v) for k, v in params.items()} if params else None
    )
    combined = filter_.batch_combine(Tensor(channels), tensor_params).data

    scale = max(np.abs(full).max(), 1.0)
    np.testing.assert_allclose(combined, full, atol=1e-3 * scale)


def _reference_channels(filter_, ctx, x) -> np.ndarray:
    """Precompute's channels the explicit way: combine fixed filters, stack
    every basis term of the others, concatenate a bank's channels."""
    if isinstance(filter_, FilterBank):
        return np.concatenate([_reference_channels(channel, ctx, x)
                               for channel in filter_.channels], axis=1)
    if filter_.category == "fixed":
        return np.asarray(filter_.forward(ctx, x), dtype=np.float32)[:, None]
    return np.stack(list(filter_._bases(ctx, x)), axis=1).astype(np.float32)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_precompute_fills_the_reference_channels(small_graph, signal, name):
    """Streaming each term into one channel tensor changes no byte, and
    the tensor has the reference's shape, dtype and C layout."""
    filter_ = make_filter(name, num_hops=5, num_features=signal.shape[1])
    channels = filter_.precompute(small_graph, signal, rho=0.5)
    ctx = PropagationContext.for_graph(small_graph, rho=0.5)
    reference = _reference_channels(filter_, ctx, signal)
    assert channels.shape == reference.shape
    assert channels.dtype == reference.dtype == np.float32
    assert channels.flags["C_CONTIGUOUS"]
    assert channels.tobytes() == reference.tobytes()


@pytest.mark.parametrize("declared", [3, 5])
def test_precompute_rejects_a_wrong_basis_count(small_graph, signal, declared):
    """A recurrence yielding other than ``basis_count()`` terms is an error,
    not a silently mis-shaped channel tensor."""
    filter_ = make_filter("chebyshev", num_hops=3)
    filter_.basis_count = lambda: declared
    with pytest.raises(FilterError, match="basis_count"):
        filter_.precompute(small_graph, signal)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_backends_agree(small_graph, signal, name):
    """csr and coo_gather propagation produce the same channels."""
    filter_ = make_filter(name, num_hops=4, num_features=signal.shape[1])
    a = filter_.precompute(small_graph, signal, backend="csr")
    b = filter_.precompute(small_graph, signal, backend="coo_gather")
    scale = max(np.abs(a).max(), 1.0)
    np.testing.assert_allclose(a, b, atol=1e-3 * scale)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_precompute_identical_with_cache_on_and_off(small_graph, signal, name):
    """The normalization memo + transpose cache never change channel bytes."""
    from repro.runtime import cache

    filter_ = make_filter(name, num_hops=4, num_features=signal.shape[1])
    cached = filter_.precompute(small_graph, signal, rho=0.5)
    with cache.caches_disabled():
        plain = filter_.precompute(small_graph, signal, rho=0.5)
    np.testing.assert_array_equal(cached, plain)


def test_forward_gradients_identical_with_cache_on_and_off(small_graph, signal):
    """One FB forward/backward: θ gradients match bitwise, cache on vs off."""
    from repro.runtime import cache

    filter_ = make_filter("chebyshev", num_hops=5,
                          num_features=signal.shape[1])

    def run():
        theta = Tensor(filter_.default_coefficients().astype(np.float32),
                       requires_grad=True)
        ctx = PropagationContext.for_graph(small_graph, rho=0.5)
        out = filter_.forward(ctx, Tensor(signal), {"theta": theta})
        out.sum().backward()
        return out.data, theta.grad

    cache.clear_transpose_cache()
    cached_out, cached_grad = run()
    with cache.caches_disabled():
        plain_out, plain_grad = run()
    np.testing.assert_array_equal(cached_out, plain_out)
    np.testing.assert_array_equal(cached_grad, plain_grad)


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_response_finite_on_grid(name):
    filter_ = make_filter(name, num_hops=6, num_features=3)
    lams = np.linspace(0.0, 2.0, 41)
    response = filter_.response(lams)
    assert response.shape == lams.shape
    assert np.all(np.isfinite(response))


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_forward_linear_in_signal(small_graph, name):
    """Filters are linear operators: g(L̃)(ax + by) = a·g(L̃)x + b·g(L̃)y."""
    rng = np.random.default_rng(3)
    filter_ = make_filter(name, num_hops=4, num_features=2)
    params = _perturbed_params(filter_, rng)
    x = rng.normal(size=(small_graph.num_nodes, 2)).astype(np.float32)
    y = rng.normal(size=(small_graph.num_nodes, 2)).astype(np.float32)
    if name == "optbasis":
        pytest.skip("OptBasis normalizes by the signal: intentionally nonlinear")

    def apply(v):
        ctx = PropagationContext.for_graph(small_graph, rho=0.5)
        return np.asarray(filter_.forward(ctx, v, params), dtype=np.float64)

    lhs = apply(2.0 * x - 3.0 * y)
    rhs = 2.0 * apply(x) - 3.0 * apply(y)
    scale = max(np.abs(rhs).max(), 1.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-3 * scale)
