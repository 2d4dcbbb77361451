"""Property tests on filter parameterization: linearity in θ, γ scaling."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filters import REGISTRY, make_filter

LAMS = np.linspace(0.0, 2.0, 33)

#: Filters whose response is linear in their coefficient vector θ.
THETA_LINEAR = [n for n, e in REGISTRY.items() if e.category == "variable"
                and n not in ("favard", "optbasis")]

small_floats = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                         allow_infinity=False)


class TestThetaLinearity:
    @given(st.sampled_from(THETA_LINEAR), small_floats, small_floats,
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_response_linear_in_theta(self, name, a, b, seed):
        """g(λ; aθ₁ + bθ₂) == a·g(λ; θ₁) + b·g(λ; θ₂)."""
        filter_ = make_filter(name, num_hops=6)
        rng = np.random.default_rng(seed)
        size = filter_.parameter_spec()["theta"].shape
        theta1 = rng.normal(size=size).astype(np.float32)
        theta2 = rng.normal(size=size).astype(np.float32)
        lhs = filter_.response(LAMS, {"theta": a * theta1 + b * theta2})
        rhs = (a * filter_.response(LAMS, {"theta": theta1})
               + b * filter_.response(LAMS, {"theta": theta2}))
        np.testing.assert_allclose(lhs, rhs, atol=1e-5 * max(1, abs(a) + abs(b)))

    @given(st.sampled_from(THETA_LINEAR))
    @settings(max_examples=20, deadline=None)
    def test_zero_theta_zero_response(self, name):
        filter_ = make_filter(name, num_hops=6)
        size = filter_.parameter_spec()["theta"].shape
        response = filter_.response(LAMS, {"theta": np.zeros(size, np.float32)})
        np.testing.assert_allclose(response, 0.0, atol=1e-10)


class TestGammaScaling:
    @given(st.sampled_from([n for n, e in REGISTRY.items()
                            if e.category == "bank" and n != "adagnn"]),
           st.floats(min_value=0.1, max_value=3.0),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_response_linear_in_gamma(self, name, scale, seed):
        """Scaling every γ_q scales the (sum-fused) response."""
        bank = make_filter(name, num_hops=4)
        rng = np.random.default_rng(seed)
        params = {p: s.init.copy() for p, s in bank.parameter_spec().items()}
        base = bank.response(LAMS, params)
        scaled = dict(params)
        scaled["gamma"] = params["gamma"] * scale
        np.testing.assert_allclose(bank.response(LAMS, scaled), scale * base,
                                   atol=1e-6 * scale)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_adagnn_gamma_zero_is_identity(self, hops, seed):
        filter_ = make_filter("adagnn", num_hops=hops, num_features=3)
        gamma = np.zeros((hops, 3), dtype=np.float32)
        response = filter_.response(LAMS, {"gamma": gamma})
        np.testing.assert_allclose(response, 1.0, atol=1e-8)


class TestHopMonotonicity:
    @given(st.sampled_from(["ppr", "hk"]),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_truncation_converges(self, name, hops):
        """Adding hops to a decaying fixed filter changes the response by
        at most the truncated tail mass."""
        short = make_filter(name, num_hops=hops)
        long = make_filter(name, num_hops=hops + 8)
        tail = np.abs(long.fixed_coefficients()[hops + 1:]).sum()
        gap = np.abs(short.response(LAMS) - long.response(LAMS)).max()
        assert gap <= tail + 1e-9
