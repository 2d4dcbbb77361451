"""Fixed filters: closed-form responses and coefficient identities."""

from __future__ import annotations

from math import factorial

import numpy as np
import pytest

from repro.errors import FilterError
from repro.filters import (
    GaussianFilter,
    HeatKernelFilter,
    IdentityFilter,
    ImpulseFilter,
    LinearFilter,
    MonomialFilter,
    PPRFilter,
    PropagationContext,
)

LAMS = np.linspace(0.0, 2.0, 21)


class TestIdentity:
    def test_response_is_one(self):
        np.testing.assert_allclose(IdentityFilter().response(LAMS), np.ones_like(LAMS))

    def test_propagate_is_identity(self, small_graph, signal):
        out = IdentityFilter().forward(PropagationContext.for_graph(small_graph),
                                       signal)
        np.testing.assert_allclose(out, signal, atol=1e-6)

    def test_single_basis(self):
        assert IdentityFilter(num_hops=10).basis_count() == 1


class TestLinear:
    def test_response_two_minus_lambda(self):
        np.testing.assert_allclose(LinearFilter().response(LAMS), 2.0 - LAMS,
                                   atol=1e-12)

    def test_zero_at_highest_frequency(self):
        assert LinearFilter().response(np.array([2.0]))[0] == pytest.approx(0.0)


class TestImpulse:
    def test_response_is_power(self):
        f = ImpulseFilter(num_hops=5)
        np.testing.assert_allclose(f.response(LAMS), (1.0 - LAMS) ** 5, atol=1e-10)

    def test_coefficients_one_hot(self):
        theta = ImpulseFilter(num_hops=4).fixed_coefficients()
        np.testing.assert_array_equal(theta, [0, 0, 0, 0, 1])

    def test_propagate_equals_repeated_adjacency(self, small_graph, signal):
        f = ImpulseFilter(num_hops=3)
        out = f.forward(PropagationContext.for_graph(small_graph), signal)
        adj = small_graph.normalized_adjacency(0.5)
        expected = signal
        for _ in range(3):
            expected = adj @ expected
        np.testing.assert_allclose(out, expected, atol=1e-4)


class TestMonomial:
    def test_coefficients_uniform(self):
        theta = MonomialFilter(num_hops=4).fixed_coefficients()
        np.testing.assert_allclose(theta, np.full(5, 0.2))

    def test_response_at_zero_is_one(self):
        # Σ 1/(K+1) · 1^k = 1 at λ = 0.
        assert MonomialFilter(num_hops=7).response(np.array([0.0]))[0] == pytest.approx(1.0)


class TestPPR:
    def test_coefficients_geometric(self):
        theta = PPRFilter(num_hops=3, alpha=0.2).fixed_coefficients()
        np.testing.assert_allclose(theta, [0.2, 0.16, 0.128, 0.1024])

    def test_response_approaches_closed_form(self):
        # K large: Σ α(1−α)^k (1−λ)^k → α / (1 − (1−α)(1−λ)).
        f = PPRFilter(num_hops=80, alpha=0.3)
        expected = 0.3 / (1.0 - 0.7 * (1.0 - LAMS))
        np.testing.assert_allclose(f.response(LAMS), expected, atol=1e-6)

    def test_alpha_validation(self):
        with pytest.raises(FilterError):
            PPRFilter(alpha=1.5)

    def test_alpha_one_is_identity(self):
        f = PPRFilter(num_hops=5, alpha=1.0)
        np.testing.assert_allclose(f.response(LAMS), np.ones_like(LAMS))

    def test_hyperparameters_exposed(self):
        assert PPRFilter(alpha=0.25).hyperparameters() == {"alpha": 0.25}


class TestHeatKernel:
    def test_response_is_exp_decay(self):
        f = HeatKernelFilter(num_hops=30, alpha=1.5)
        np.testing.assert_allclose(f.response(LAMS), np.exp(-1.5 * LAMS), atol=1e-8)

    def test_coefficients_poisson(self):
        theta = HeatKernelFilter(num_hops=3, alpha=2.0).fixed_coefficients()
        expected = [np.exp(-2) * 2 ** k / factorial(k) for k in range(4)]
        np.testing.assert_allclose(theta, expected)

    def test_negative_alpha_rejected(self):
        with pytest.raises(FilterError):
            HeatKernelFilter(alpha=-1.0)


class TestGaussian:
    def test_bump_centered_at_one_plus_beta(self):
        f = GaussianFilter(num_hops=20, alpha=2.0, beta=-0.5)  # centre 0.5
        response = f.response(LAMS)
        assert LAMS[np.argmax(response)] == pytest.approx(0.5, abs=0.1)

    def test_matches_product_closed_form(self):
        f = GaussianFilter(num_hops=30, alpha=1.0, beta=0.0)  # centre 1
        layers = f.num_layers
        expected = (1.0 - (1.0 - LAMS) ** 2 / layers) ** layers
        np.testing.assert_allclose(f.response(LAMS), expected, atol=1e-8)

    def test_approximates_gaussian(self):
        f = GaussianFilter(num_hops=60, alpha=1.0, beta=0.0)
        np.testing.assert_allclose(f.response(LAMS),
                                   np.exp(-((LAMS - 1.0) ** 2)), atol=0.02)

    def test_two_hops_per_layer(self, small_graph, signal):
        from repro.filters.base import PropagationContext

        f = GaussianFilter(num_hops=10, alpha=1.0)
        ctx = PropagationContext.for_graph(small_graph)
        f.forward(ctx, signal)
        assert ctx.hops == 2 * f.num_layers

    def test_validation(self):
        with pytest.raises(FilterError):
            GaussianFilter(alpha=-0.1)


class TestCommonBehaviour:
    @pytest.mark.parametrize("cls", [IdentityFilter, LinearFilter, ImpulseFilter,
                                     MonomialFilter, PPRFilter, HeatKernelFilter,
                                     GaussianFilter])
    def test_no_trainable_parameters(self, cls):
        assert cls().parameter_spec() == {}

    @pytest.mark.parametrize("cls", [MonomialFilter, PPRFilter, HeatKernelFilter])
    def test_precompute_single_channel(self, small_graph, signal, cls):
        channels = cls(num_hops=4).precompute(small_graph, signal)
        assert channels.shape == (small_graph.num_nodes, 1, signal.shape[1])

    def test_negative_hops_rejected(self):
        with pytest.raises(FilterError):
            MonomialFilter(num_hops=-1)
