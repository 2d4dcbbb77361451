"""Model architectures: decoupled, mini-batch, iterative, baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.errors import TrainingError
from repro.filters import make_filter
from repro.models import (
    ANSGTLite,
    DecoupledModel,
    MiniBatchModel,
    NAGphormerLite,
    make_chebnet,
    make_gcn,
    make_graphsage,
)


class TestDecoupledModel:
    def test_forward_shape(self, small_graph, rng):
        model = DecoupledModel(make_filter("ppr", num_hops=4),
                               in_features=small_graph.num_features,
                               out_features=small_graph.num_classes,
                               hidden=16, rng=rng)
        logits = model(small_graph)
        assert logits.shape == (small_graph.num_nodes, small_graph.num_classes)

    def test_phi0_zero_uses_raw_width(self, small_graph, rng):
        model = DecoupledModel(make_filter("monomial", num_hops=3),
                               in_features=small_graph.num_features,
                               out_features=3, phi0_layers=0, rng=rng)
        assert model._filter_width == small_graph.num_features
        assert model(small_graph).shape == (small_graph.num_nodes, 3)

    def test_concat_bank_widens_phi1(self, small_graph, rng):
        model = DecoupledModel(make_filter("acmgnn1", num_hops=3),
                               in_features=small_graph.num_features,
                               out_features=4, hidden=8, rng=rng)
        assert model(small_graph).shape == (small_graph.num_nodes, 4)

    def test_filter_parameters_separated(self, small_graph, rng):
        model = DecoupledModel(make_filter("chebyshev", num_hops=5),
                               in_features=small_graph.num_features,
                               out_features=3, rng=rng)
        filter_params = model.filter_parameters()
        transform_params = model.transform_parameters()
        assert len(filter_params) == 1
        assert filter_params[0].shape == (6,)
        ids = {id(p) for p in filter_params}
        assert all(id(p) not in ids for p in transform_params)

    def test_fixed_filter_has_no_filter_params(self, small_graph, rng):
        model = DecoupledModel(make_filter("ppr"), small_graph.num_features,
                               3, rng=rng)
        assert model.filter_parameters() == []
        assert model.filter_params() is None

    def test_gradients_flow_everywhere(self, small_graph, rng):
        model = DecoupledModel(make_filter("figure", num_hops=3),
                               in_features=small_graph.num_features,
                               out_features=3, hidden=8, rng=rng)
        model(small_graph).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_missing_features_rejected(self, rng):
        from repro.graph import Graph

        g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
        model = DecoupledModel(make_filter("ppr"), 4, 2, rng=rng)
        with pytest.raises(TrainingError):
            model(g)

    def test_numpy_filter_params_copies(self, small_graph, rng):
        model = DecoupledModel(make_filter("chebyshev", num_hops=3),
                               small_graph.num_features, 3, rng=rng)
        params = model.numpy_filter_params()
        params["theta"][:] = 99
        assert not np.any(model.filter_params()["theta"].data == 99)


class TestMiniBatchModel:
    def test_forward_shape(self, small_graph, signal, rng):
        filter_ = make_filter("chebyshev", num_hops=4)
        channels = filter_.precompute(small_graph, signal)
        model = MiniBatchModel(filter_, in_features=signal.shape[1],
                               out_features=5, rng=rng)
        logits = model(Tensor(channels[:16]))
        assert logits.shape == (16, 5)

    def test_rejects_2d_input(self, signal, rng):
        model = MiniBatchModel(make_filter("ppr"), signal.shape[1], 2, rng=rng)
        with pytest.raises(TrainingError):
            model(Tensor(signal))

    def test_bank_concat_width(self, small_graph, signal, rng):
        filter_ = make_filter("fbgnn1", num_hops=3)
        channels = filter_.precompute(small_graph, signal)
        model = MiniBatchModel(filter_, in_features=signal.shape[1],
                               out_features=4, rng=rng)
        assert model(Tensor(channels[:8])).shape == (8, 4)


class TestIterativeBaselines:
    @pytest.mark.parametrize("factory", [make_gcn, make_graphsage, make_chebnet])
    def test_forward_shapes(self, small_graph, rng, factory):
        model = factory(small_graph.num_features, small_graph.num_classes,
                        hidden=16, rng=rng)
        logits = model(small_graph)
        assert logits.shape == (small_graph.num_nodes, small_graph.num_classes)

    def test_backend_equivalence(self, small_graph):
        rng_a = np.random.default_rng(0)
        rng_b = np.random.default_rng(0)
        a = make_gcn(small_graph.num_features, 3, rng=rng_a, backend="csr")
        b = make_gcn(small_graph.num_features, 3, rng=rng_b, backend="coo_gather")
        a.eval()
        b.eval()
        np.testing.assert_allclose(a(small_graph).data, b(small_graph).data,
                                   atol=1e-3)


class TestTransformers:
    def test_nagphormer_tokens_and_forward(self, small_graph, rng):
        model = NAGphormerLite(small_graph.num_features, 4, hidden=16,
                               rng=rng)
        tokens = model.precompute_tokens(small_graph)
        assert tokens.shape == (small_graph.num_nodes, 5, small_graph.num_features)
        logits = model(Tensor(tokens[:10]))
        assert logits.shape == (10, 4)

    def test_ansgt_sampling_and_forward(self, small_graph, rng):
        model = ANSGTLite(small_graph.num_features, 3, hidden=16, rng=rng)
        nodes = np.arange(12)
        tokens = model.sample_tokens(small_graph, nodes)
        assert tokens.shape == (12, 1 + 4 + 4, small_graph.num_features)
        logits = model(Tensor(tokens))
        assert logits.shape == (12, 3)

    def test_ansgt_handles_isolated_nodes(self, rng):
        from repro.graph import Graph

        g = Graph.from_edges(4, np.array([[0, 1]]),
                             features=np.eye(4, dtype=np.float32))
        model = ANSGTLite(4, 2, rng=rng)
        tokens = model.sample_tokens(g, np.array([3]))  # node 3 is isolated
        assert tokens.shape == (1, 1 + 4 + 4, 4)
