"""Variable filters: basis identities, initializations, adaptive bases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.errors import FilterError
from repro.filters import (
    BernsteinFilter,
    ChebInterpFilter,
    ChebyshevFilter,
    ClenshawFilter,
    FavardFilter,
    HornerFilter,
    JacobiFilter,
    LegendreFilter,
    LinearVariableFilter,
    MonomialVariableFilter,
    OptBasisFilter,
)
from repro.filters.base import PropagationContext, SpectralContext
from repro.filters.variable import chebyshev_nodes

LAMS = np.linspace(0.0, 2.0, 41)


def basis_values(filter_, lams):
    """Evaluate each basis function on the grid via the spectral context."""
    ctx = SpectralContext(lams)
    return [np.asarray(b, dtype=np.float64) for b in filter_._bases(ctx, np.ones_like(lams))]


class TestChebyshev:
    def test_bases_are_cosines(self):
        f = ChebyshevFilter(num_hops=6)
        bases = basis_values(f, LAMS)
        theta = np.arccos(np.clip(LAMS - 1.0, -1, 1))
        for k, basis in enumerate(bases):
            np.testing.assert_allclose(basis, np.cos(k * theta), atol=1e-8)

    def test_bases_bounded(self):
        for basis in basis_values(ChebyshevFilter(num_hops=10), LAMS):
            assert np.abs(basis).max() <= 1.0 + 1e-9

    def test_default_is_low_pass(self):
        f = ChebyshevFilter(num_hops=6)
        response = f.response(LAMS)
        assert response[0] > response[-1]
        np.testing.assert_allclose(response, 2.0 - LAMS, atol=1e-8)


class TestChebInterp:
    def test_nodes_in_open_interval(self):
        nodes = chebyshev_nodes(9)
        assert np.all(nodes > -1) and np.all(nodes < 1)
        assert len(nodes) == 10

    def test_interpolation_reproduces_node_values(self):
        """g(x_κ + 1) ≈ θ_κ: the filter interpolates its own parameters."""
        f = ChebInterpFilter(num_hops=8)
        rng = np.random.default_rng(0)
        theta = rng.normal(size=9).astype(np.float32)
        nodes = chebyshev_nodes(8)
        response = f.response(nodes + 1.0, {"theta": theta})
        np.testing.assert_allclose(response, theta, atol=1e-4)

    def test_transform_shape(self):
        transform = ChebInterpFilter(num_hops=5).coefficient_transform()
        assert transform.shape == (6, 6)


class TestClenshaw:
    def test_bases_are_second_kind(self):
        f = ClenshawFilter(num_hops=5)
        bases = basis_values(f, LAMS[1:-1])
        theta = np.arccos(np.clip(LAMS[1:-1] - 1.0, -1, 1))
        for k, basis in enumerate(bases):
            expected = np.sin((k + 1) * theta) / np.sin(theta)
            np.testing.assert_allclose(basis, expected, atol=1e-6)


class TestLegendre:
    def test_matches_numpy_legendre(self):
        from numpy.polynomial import legendre

        f = LegendreFilter(num_hops=5)
        bases = basis_values(f, LAMS)
        for k, basis in enumerate(bases):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            expected = legendre.legval(LAMS - 1.0, coeffs)
            np.testing.assert_allclose(basis, expected, atol=1e-8)


class TestJacobi:
    def test_reduces_to_legendre_at_zero(self):
        jac = JacobiFilter(num_hops=5, a=0.0, b=0.0)
        leg = LegendreFilter(num_hops=5)
        # Jacobi argument is (1−λ); Legendre argument is (λ−1): P_k(−x) =
        # (−1)^k P_k(x), so they agree up to alternating signs.
        jac_bases = basis_values(jac, LAMS)
        leg_bases = basis_values(leg, LAMS)
        for k, (jb, lb) in enumerate(zip(jac_bases, leg_bases)):
            np.testing.assert_allclose(jb, (-1.0) ** k * lb, atol=1e-7)

    def test_hyperparameters(self):
        f = JacobiFilter(a=0.5, b=-0.25)
        assert (f.a, f.b) == (0.5, -0.25)


class TestBernstein:
    def test_partition_of_unity(self):
        f = BernsteinFilter(num_hops=7)
        total = np.sum(basis_values(f, LAMS), axis=0)
        np.testing.assert_allclose(total, np.ones_like(LAMS), atol=1e-8)

    def test_bases_nonnegative(self):
        for basis in basis_values(BernsteinFilter(num_hops=7), LAMS):
            assert basis.min() >= -1e-9

    def test_peak_positions_increase(self):
        bases = basis_values(BernsteinFilter(num_hops=6), LAMS)
        peaks = [LAMS[np.argmax(b)] for b in bases]
        assert peaks == sorted(peaks)

    def test_theta_is_pointwise_response(self):
        """θ_k directly sets the response near λ = 2k/K."""
        f = BernsteinFilter(num_hops=10)
        theta = np.linspace(1.0, 0.0, 11).astype(np.float32)  # ramp
        response = f.response(LAMS, {"theta": theta})
        np.testing.assert_allclose(response, 1.0 - LAMS / 2.0, atol=1e-6)


class TestHorner:
    def test_bases_are_geometric_partial_sums(self):
        f = HornerFilter(num_hops=4)
        bases = basis_values(f, LAMS)
        running = np.zeros_like(LAMS)
        for k, basis in enumerate(bases):
            running = running * 0 + sum((1 - LAMS) ** j for j in range(k + 1))
            np.testing.assert_allclose(basis, running, atol=1e-7)


class TestMonomialVariable:
    def test_default_init_is_ppr_decay(self):
        theta = MonomialVariableFilter(num_hops=4, alpha=0.5).default_coefficients()
        np.testing.assert_allclose(theta[:4], [0.5, 0.25, 0.125, 0.0625])
        assert theta[4] == pytest.approx(0.5 ** 4)


class TestLinearVariable:
    def test_two_bases(self):
        assert LinearVariableFilter().basis_count() == 2

    def test_theta_zero_is_adjacency(self):
        f = LinearVariableFilter()
        response = f.response(LAMS)  # default theta = [0, 1]
        np.testing.assert_allclose(response, 1.0 - LAMS, atol=1e-8)


class TestFavard:
    def test_parameter_spec_names(self):
        spec = FavardFilter(num_hops=5).parameter_spec()
        assert set(spec) == {"theta", "alpha_raw", "beta"}
        assert spec["alpha_raw"].shape == (6,)

    def test_default_recurrence_is_monomial_like(self):
        """α=1, β=0 gives T_k = Ã T_{k−1} − T_{k−2}: degree-k polynomials."""
        f = FavardFilter(num_hops=4)
        params = {name: s.init for name, s in f.parameter_spec().items()}
        response = f.response(LAMS, params)
        assert np.all(np.isfinite(response))

    def test_tensor_and_numpy_paths_agree(self, small_graph):
        rng = np.random.default_rng(2)
        f = FavardFilter(num_hops=4)
        spec = f.parameter_spec()
        raw = {n: (s.init + 0.2 * rng.normal(size=s.shape)).astype(np.float32)
               for n, s in spec.items()}
        x = rng.normal(size=(small_graph.num_nodes, 3)).astype(np.float32)
        ctx = PropagationContext.for_graph(small_graph)
        out_np = np.asarray(f.forward(ctx, x, raw))
        ctx2 = PropagationContext.for_graph(small_graph)
        tensors = {n: Tensor(v) for n, v in raw.items()}
        out_t = f.forward(ctx2, Tensor(x), tensors).data
        np.testing.assert_allclose(out_t, out_np, atol=1e-4)

    def test_gradients_reach_recurrence_params(self, small_graph):
        f = FavardFilter(num_hops=3)
        spec = f.parameter_spec()
        params = {n: Tensor(s.init.copy(), requires_grad=True)
                  for n, s in spec.items()}
        x = Tensor(np.random.default_rng(0).normal(
            size=(small_graph.num_nodes, 2)).astype(np.float32))
        ctx = PropagationContext.for_graph(small_graph)
        f.forward(ctx, x, params).sum().backward()
        for name, p in params.items():
            assert p.grad is not None, name

    def test_missing_params_rejected(self, small_graph, signal):
        ctx = PropagationContext.for_graph(small_graph)
        with pytest.raises(FilterError):
            FavardFilter(num_hops=3).forward(ctx, signal, None)


class TestOptBasis:
    def test_bases_orthonormal_per_channel(self, small_graph):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(small_graph.num_nodes, 3)).astype(np.float64)
        f = OptBasisFilter(num_hops=6)
        ctx = PropagationContext.for_graph(small_graph)
        bases = list(f._bases(ctx, x))
        for c in range(3):
            stacked = np.stack([b[:, c] for b in bases], axis=1)
            gram = stacked.T @ stacked
            np.testing.assert_allclose(gram, np.eye(7), atol=5e-2)

    def test_response_replays_last_run(self, small_graph):
        f = OptBasisFilter(num_hops=4)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(small_graph.num_nodes, 1)).astype(np.float32)
        ctx = PropagationContext.for_graph(small_graph)
        theta = rng.normal(size=5).astype(np.float32)
        f.forward(ctx, x, {"theta": theta})
        # With a single channel the replayed response is exact.
        from repro.spectral import laplacian_eigendecomposition

        eigenvalues, eigenvectors = laplacian_eigendecomposition(small_graph)
        response = f.response(eigenvalues, {"theta": theta})
        expected = eigenvectors @ (
            (response * (eigenvectors.T @ (x[:, 0] / np.linalg.norm(x[:, 0])))))
        ctx2 = PropagationContext.for_graph(small_graph)
        actual = np.asarray(f.forward(ctx2, x, {"theta": theta}))[:, 0]
        np.testing.assert_allclose(actual, expected * np.linalg.norm(x[:, 0]) /
                                   np.linalg.norm(x[:, 0]), atol=2e-2)

    def test_requires_2d_signal(self, small_graph):
        ctx = PropagationContext.for_graph(small_graph)
        with pytest.raises(FilterError):
            list(OptBasisFilter(num_hops=2)._bases(
                ctx, np.ones(small_graph.num_nodes)))
