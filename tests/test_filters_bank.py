"""Filter banks: channel structure, fusion, γ parameters, AdaGNN identity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.errors import FilterError
from repro.filters import (
    ACMGNNFilter,
    AdaGNNFilter,
    FAGNNFilter,
    FBGNNFilter,
    FiGUReFilter,
    FilterBank,
    G2CNFilter,
    GNNLFHFFilter,
    IdentityFilter,
    MonomialFilter,
)
from repro.filters.base import PropagationContext

LAMS = np.linspace(0.0, 2.0, 21)


class TestGenericBank:
    def test_needs_channels(self):
        with pytest.raises(FilterError):
            FilterBank(channels=[], fusion="sum")

    def test_bad_fusion(self):
        with pytest.raises(FilterError):
            FilterBank(channels=[IdentityFilter()], fusion="mean")

    def test_gamma_spec(self):
        bank = FilterBank([IdentityFilter(), MonomialFilter(4)], fusion="sum")
        spec = bank.parameter_spec()
        assert spec["gamma"].shape == (2,)
        np.testing.assert_allclose(spec["gamma"].init, [0.5, 0.5])

    def test_sum_fusion_weights_channels(self, small_graph, signal):
        bank = FilterBank([IdentityFilter(), IdentityFilter()], fusion="sum")
        ctx = PropagationContext.for_graph(small_graph)
        params = {"gamma": np.array([0.25, 0.75], dtype=np.float32)}
        out = bank.forward(ctx, signal, params)
        np.testing.assert_allclose(out, signal, atol=1e-6)  # 0.25+0.75 = 1

    def test_concat_fusion_widens(self, small_graph, signal):
        bank = FilterBank([IdentityFilter(), MonomialFilter(3)], fusion="concat")
        ctx = PropagationContext.for_graph(small_graph)
        out = bank.forward(ctx, signal)
        assert out.shape == (small_graph.num_nodes, 2 * signal.shape[1])
        assert bank.output_width(signal.shape[1]) == 2 * signal.shape[1]

    def test_precompute_slices_channels(self, small_graph, signal):
        bank = FiGUReFilter(num_hops=3)
        channels = bank.precompute(small_graph, signal)
        # identity (1) + monomial_var (4) + chebyshev (4) + bernstein (4)
        assert channels.shape[1] == 13
        assert bank._channel_slices == [(0, 1), (1, 5), (5, 9), (9, 13)]

    def test_batch_combine_requires_precompute(self, signal):
        bank = FiGUReFilter(num_hops=3)
        with pytest.raises(FilterError):
            bank.batch_combine(Tensor(signal[:, None, :]))

    def test_variable_channels_get_scoped_params(self):
        bank = FiGUReFilter(num_hops=4)
        spec = bank.parameter_spec()
        assert "gamma" in spec
        assert "theta_1" in spec and "theta_2" in spec and "theta_3" in spec
        assert "theta_0" not in spec  # identity channel has no θ

    def test_channel_responses_shape(self):
        bank = G2CNFilter(num_hops=6)
        responses = bank.channel_responses(LAMS)
        assert responses.shape == (2, len(LAMS))


class TestNamedBanks:
    @pytest.mark.parametrize("cls,expected_q", [
        (lambda: FBGNNFilter(4, variant="I"), 2),
        (lambda: FBGNNFilter(4, variant="II"), 2),
        (lambda: ACMGNNFilter(4, variant="I"), 3),
        (lambda: ACMGNNFilter(4, variant="II"), 3),
        (lambda: FAGNNFilter(4), 2),
        (lambda: G2CNFilter(4), 2),
        (lambda: GNNLFHFFilter(4), 2),
        (lambda: FiGUReFilter(4), 4),
    ])
    def test_channel_counts(self, cls, expected_q):
        assert len(cls().channels) == expected_q

    def test_variant_validation(self):
        with pytest.raises(FilterError):
            FBGNNFilter(variant="III")
        with pytest.raises(FilterError):
            ACMGNNFilter(variant="X")

    def test_variant_i_concat_ii_sum(self):
        assert FBGNNFilter(variant="I").fusion == "concat"
        assert FBGNNFilter(variant="II").fusion == "sum"
        assert ACMGNNFilter(variant="I").fusion == "concat"
        assert ACMGNNFilter(variant="II").fusion == "sum"

    def test_fbgnn_channels_cover_both_ends(self):
        bank = FBGNNFilter(num_hops=8, variant="II")
        responses = bank.channel_responses(LAMS)
        # Low-pass channel peaks at λ=0, high-pass at λ=2.
        assert np.argmax(responses[0]) == 0
        assert np.argmax(responses[1]) == len(LAMS) - 1

    def test_g2cn_centres(self):
        bank = G2CNFilter(num_hops=20, alpha_low=2.0, alpha_high=2.0)
        responses = bank.channel_responses(LAMS)
        assert LAMS[np.argmax(responses[0])] == pytest.approx(0.0, abs=0.11)
        assert LAMS[np.argmax(responses[1])] == pytest.approx(2.0, abs=0.11)

    def test_gnnlfhf_prefix_tilts_response(self):
        bank = GNNLFHFFilter(num_hops=20, beta_low=0.5, beta_high=0.5)
        responses = bank.channel_responses(LAMS)
        # (I − βL̃) suppresses high frequencies, (I + βL̃) boosts them.
        assert responses[0][-1] < responses[1][-1]

    def test_fagnn_beta_hyperparameter(self):
        assert FAGNNFilter(beta=0.3).beta == 0.3


class TestAdaGNN:
    def test_requires_num_features(self):
        with pytest.raises(FilterError):
            AdaGNNFilter(num_hops=3, num_features=0)

    def test_gamma_shape(self):
        spec = AdaGNNFilter(num_hops=5, num_features=7).parameter_spec()
        assert spec["gamma"].shape == (5, 7)

    def test_forward_matches_product_expansion(self, small_graph):
        """Direct recurrence == elementary-symmetric hop recombination."""
        rng = np.random.default_rng(0)
        f = AdaGNNFilter(num_hops=4, num_features=3)
        gamma = rng.uniform(0.05, 0.4, size=(4, 3)).astype(np.float32)
        x = rng.normal(size=(small_graph.num_nodes, 3)).astype(np.float32)

        ctx = PropagationContext.for_graph(small_graph)
        direct = np.asarray(f.forward(ctx, x, {"gamma": gamma}))

        channels = f.precompute(small_graph, x)
        combined = f.batch_combine(Tensor(channels),
                                   {"gamma": Tensor(gamma)}).data
        np.testing.assert_allclose(combined, direct, atol=1e-4)

    def test_response_is_product_form(self):
        f = AdaGNNFilter(num_hops=3, num_features=1)
        gamma = np.full((3, 1), 0.5, dtype=np.float32)
        response = f.response(LAMS, {"gamma": gamma})
        np.testing.assert_allclose(response, (1 - 0.5 * LAMS) ** 3, atol=1e-6)

    def test_gradient_through_gamma(self, small_graph):
        f = AdaGNNFilter(num_hops=3, num_features=2)
        gamma = Tensor(np.full((3, 2), 0.2, dtype=np.float32), requires_grad=True)
        x = Tensor(np.random.default_rng(0).normal(
            size=(small_graph.num_nodes, 2)).astype(np.float32))
        ctx = PropagationContext.for_graph(small_graph)
        f.forward(ctx, x, {"gamma": gamma}).sum().backward()
        assert gamma.grad is not None
        assert np.any(gamma.grad != 0)
