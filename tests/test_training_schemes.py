"""Learning schemes end-to-end: FB / MB / GP training, OOM handling."""

from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro import telemetry
from repro.autodiff import Tensor
from repro.datasets import random_split
from repro.errors import AutodiffError, TrainingError
from repro.filters import base as filters_base
from repro.filters import make_filter
from repro.filters.base import PropagationContext, SpectralFilter
from repro.runtime import context
from repro.runtime.profiler import StageProfiler
from repro.tasks import run_node_classification
from repro.training import (
    EarlyStopper,
    MiniBatchTrainer,
    TrainConfig,
    build_optimizer,
    make_device,
)

FAST = TrainConfig(epochs=15, patience=10)


class TestFullBatch:
    def test_learns_above_chance(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="full_batch", config=FAST)
        assert result.status == "ok"
        assert result.test_score > 1.5 / small_graph.num_classes

    def test_records_stages(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="full_batch", config=FAST)
        assert result.profiler.seconds("train") > 0
        assert result.profiler.seconds("inference") > 0
        assert result.epochs_run >= 1

    def test_predictions_full_shape(self, small_graph):
        result = run_node_classification(small_graph, "monomial",
                                         scheme="full_batch", config=FAST)
        assert result.predictions.shape == (small_graph.num_nodes,
                                            small_graph.num_classes)

    def test_variable_filter_params_returned(self, small_graph):
        result = run_node_classification(small_graph, "chebyshev",
                                         scheme="full_batch", config=FAST)
        assert "theta" in result.filter_params
        # θ moved away from initialization during training.
        init = make_filter("chebyshev", num_hops=10).default_coefficients()
        assert not np.allclose(result.filter_params["theta"], init)

    def test_oom_status(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="full_batch", config=FAST,
                                         device_capacity_gib=1e-6)
        assert result.is_oom
        assert np.isnan(result.test_score)

    def test_device_accounts_graph_residency(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="full_batch", config=FAST)
        assert result.device_peak_bytes > small_graph.features.nbytes

    def test_seeded_reproducibility(self, small_graph):
        split = random_split(small_graph.num_nodes, seed=0)
        a = run_node_classification(small_graph, "ppr", scheme="full_batch",
                                    config=FAST, split=split)
        b = run_node_classification(small_graph, "ppr", scheme="full_batch",
                                    config=FAST, split=split)
        assert a.test_score == b.test_score


class TestMiniBatch:
    def test_learns_above_chance(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="mini_batch", config=FAST)
        assert result.status == "ok"
        assert result.test_score > 1.5 / small_graph.num_classes

    def test_has_precompute_stage(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="mini_batch", config=FAST)
        assert result.precompute_seconds > 0

    def test_device_independent_of_graph(self):
        """MB device peak barely grows with graph size (the paper's RQ2)."""
        from repro.datasets import synthesize

        small = synthesize("cora", scale=0.1, seed=0)
        large = synthesize("cora", scale=0.6, seed=0)
        config = TrainConfig(epochs=3, patience=0, batch_size=64, eval_every=10)
        r_small = run_node_classification(small, "ppr", scheme="mini_batch",
                                          config=config)
        r_large = run_node_classification(large, "ppr", scheme="mini_batch",
                                          config=config)
        assert r_large.device_peak_bytes < 2 * r_small.device_peak_bytes
        # ...but RAM grows with n.
        assert r_large.ram_peak_bytes > r_small.ram_peak_bytes

    def test_variable_filter_ram_exceeds_fixed(self, small_graph):
        fixed = run_node_classification(small_graph, "ppr",
                                        scheme="mini_batch", config=FAST)
        variable = run_node_classification(small_graph, "chebyshev",
                                           scheme="mini_batch", config=FAST)
        assert variable.ram_peak_bytes > 3 * fixed.ram_peak_bytes

    def test_comparable_to_full_batch(self, small_graph):
        fb = run_node_classification(small_graph, "monomial",
                                     scheme="full_batch", config=FAST)
        mb = run_node_classification(small_graph, "monomial",
                                     scheme="mini_batch", config=FAST)
        assert abs(fb.test_score - mb.test_score) < 0.25


class TestGraphPartition:
    def test_trains(self, small_graph):
        result = run_node_classification(small_graph, "ppr",
                                         scheme="graph_partition",
                                         config=FAST)
        assert result.status == "ok"
        assert result.test_score > 1.0 / small_graph.num_classes

    def test_device_smaller_than_full_batch(self, small_graph):
        fb = run_node_classification(small_graph, "ppr", scheme="full_batch",
                                     config=FAST)
        gp = run_node_classification(small_graph, "ppr",
                                     scheme="graph_partition", config=FAST)
        assert gp.device_peak_bytes < fb.device_peak_bytes


class TestTrainConfig:
    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5, float("nan")])
    def test_rejects_dropout_outside_unit_interval(self, rate):
        with pytest.raises(TrainingError, match="dropout"):
            TrainConfig(dropout=rate)
        with pytest.raises(TrainingError, match="dropout"):
            replace(FAST, dropout=rate)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.999])
    def test_accepts_dropout_in_unit_interval(self, rate):
        assert replace(FAST, dropout=rate).dropout == rate


class TestEarlyStopping:
    def test_stops_after_patience(self, small_graph):
        config = TrainConfig(epochs=200, patience=3)
        result = run_node_classification(small_graph, "identity",
                                         scheme="full_batch", config=config)
        assert result.epochs_run < 200

    def test_stopper_restores_best(self, rng):
        from repro.nn import Linear

        model = Linear(2, 2, rng=rng)
        stopper = EarlyStopper(patience=2)
        stopper.update(0.9, model)
        best = model.weight.data.copy()
        model.weight.data = model.weight.data + 1.0
        stopper.update(0.1, model)
        stopper.restore(model)
        np.testing.assert_array_equal(model.weight.data, best)

    def test_patience_zero_never_stops(self, rng):
        from repro.nn import Linear

        model = Linear(2, 2, rng=rng)
        stopper = EarlyStopper(patience=0)
        assert not stopper.update(0.5, model)
        assert not stopper.update(0.4, model)
        assert not stopper.update(0.3, model)


class TestOptimizerGroups:
    def test_decoupled_model_gets_two_groups(self, small_graph, rng):
        from repro.models import DecoupledModel

        model = DecoupledModel(make_filter("chebyshev", num_hops=4),
                               in_features=small_graph.num_features,
                               out_features=small_graph.num_classes, rng=rng)
        config = TrainConfig(lr=0.01, lr_filter=0.2)
        optimizer = build_optimizer(model, config)
        assert len(optimizer.groups) == 2
        assert optimizer.groups[0]["lr"] == 0.01
        assert optimizer.groups[1]["lr"] == 0.2

    def test_fixed_filter_single_group(self, small_graph, rng):
        from repro.models import DecoupledModel

        model = DecoupledModel(make_filter("ppr"),
                               in_features=small_graph.num_features,
                               out_features=small_graph.num_classes, rng=rng)
        optimizer = build_optimizer(model, TrainConfig())
        assert len(optimizer.groups) == 1


class TestCacheInvisibility:
    """The sparse-compute cache layer must not change training numerics."""

    def _paired_runs(self, filter_name, scheme):
        from repro.datasets import synthesize
        from repro.runtime import cache, context

        split = random_split(270, seed=1)
        config = TrainConfig(epochs=2, patience=0, eval_every=1)
        cache.clear_transpose_cache()
        cached = run_node_classification(
            synthesize("cora", scale=0.1, seed=3), filter_name,
            scheme=scheme, config=config, split=split)
        with context.using(cache=False):
            plain = run_node_classification(
                synthesize("cora", scale=0.1, seed=3), filter_name,
                scheme=scheme, config=config, split=split)
        return cached, plain

    @pytest.mark.parametrize("filter_name", ["ppr", "chebyshev"])
    def test_full_batch_epoch_identical_on_and_off(self, filter_name):
        cached, plain = self._paired_runs(filter_name, "full_batch")
        assert cached.test_score == plain.test_score
        assert cached.valid_score == plain.valid_score
        np.testing.assert_array_equal(cached.predictions, plain.predictions)

    @pytest.mark.parametrize("filter_name", ["ppr", "chebyshev"])
    def test_mini_batch_epoch_identical_on_and_off(self, filter_name):
        cached, plain = self._paired_runs(filter_name, "mini_batch")
        assert cached.test_score == plain.test_score
        assert cached.valid_score == plain.valid_score
        np.testing.assert_array_equal(cached.predictions, plain.predictions)

    def test_full_batch_transpose_built_once(self):
        from repro.datasets import synthesize
        from repro.runtime import cache

        cache.clear_transpose_cache()
        run_node_classification(
            synthesize("cora", scale=0.1, seed=3), "ppr",
            scheme="full_batch",
            config=TrainConfig(epochs=4, patience=0, eval_every=10))
        # one propagation matrix → at most one Pᵀ materialization
        assert cache.transpose_build_count() <= 1


class TestRunFootprint:
    """A run holds only what it still reads: precompute streams its terms
    into the channel tensor, a step's graph holds only what its backward
    reads, and backward releases it."""

    @staticmethod
    def _record_planner(monkeypatch):
        """The active planner at every filter precompute, in call order."""
        seen = []
        original = SpectralFilter.precompute

        def recording(self, *args, **kwargs):
            seen.append(context.current().active_planner)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SpectralFilter, "precompute", recording)
        return seen

    @pytest.mark.parametrize("name", ["chebyshev", "horner", "figure"])
    def test_standalone_precompute_holds_channels_plus_live_terms(
            self, small_graph, name):
        trainer = MiniBatchTrainer()
        trainer.graph, trainer.config = small_graph, TrainConfig()
        trainer.filter = make_filter(name, num_hops=10)
        small_graph.normalized_adjacency(trainer.config.rho)  # memoised
        tracemalloc.start()
        try:
            trainer.precompute(StageProfiler())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        term = small_graph.num_nodes * small_graph.num_features * 4
        assert peak <= trainer.channels.nbytes + 5 * term

    def test_full_batch_fit_keeps_one_step_graph(self, small_graph):
        """Live bytes do not grow with the epoch count: step t's autodiff
        graph is gone before step t+1's forward and before inference."""
        split = random_split(small_graph.num_nodes, seed=0)
        peaks = []
        for epochs in (1, 3):
            telemetry.configure()
            try:
                run_node_classification(
                    small_graph, "chebyshev", scheme="full_batch",
                    config=TrainConfig(epochs=epochs, patience=0), split=split)
                peaks.append(telemetry.get_ledger().summary()["peak_bytes"])
            finally:
                telemetry.shutdown()
        assert 0 < peaks[1] <= 1.15 * peaks[0]

    @staticmethod
    def _record_hops(monkeypatch):
        """Weakrefs to the data of every combined basis term but the
        first (the signal itself), in the order the combine reads them."""
        hops = []
        original = filters_base.linear_combination

        def recording(terms, coefficients):
            def watched():
                for k, term in enumerate(terms):
                    if k:
                        hops.append(weakref.ref(term.data))
                    yield term
            return original(watched(), coefficients)

        monkeypatch.setattr(filters_base, "linear_combination", recording)
        return hops

    def test_fixed_filter_hops_die_in_forward(self, small_graph, monkeypatch):
        """ppr's θ is a constant, so its backward reads no hop output."""
        hops = self._record_hops(monkeypatch)
        x = Tensor(small_graph.features, requires_grad=True)
        out = make_filter("ppr", num_hops=4).forward(
            PropagationContext.for_graph(small_graph), x)
        assert out.requires_grad and len(hops) == 4
        assert [hop() for hop in hops] == [None] * 4

    def test_trainable_filter_hops_live_until_backward(self, small_graph,
                                                       monkeypatch):
        """∂θ_k = ⟨grad, B_k⟩ reads every hop; backward then frees them,
        and a second backward through the released graph is an error."""
        hops = self._record_hops(monkeypatch)
        filter_ = make_filter("monomial_var", num_hops=4)
        theta = Tensor(filter_.parameter_spec()["theta"].init,
                       requires_grad=True)
        x = Tensor(small_graph.features, requires_grad=True)
        loss = filter_.forward(PropagationContext.for_graph(small_graph), x,
                               {"theta": theta}).sum()
        assert len(hops) == 4 and all(hop() is not None for hop in hops)
        loss.backward()
        assert theta.grad is not None
        assert [hop() for hop in hops] == [None] * 4
        with pytest.raises(AutodiffError):
            loss.backward()

    def test_fbgnn2_step_ledger_peak(self, small_graph):
        """One fbgnn2 step (K = 3, forward then backward) peaks at five
        ``n·F`` float32 terms: 5 · 271 · 1433 · 4 = 7 766 860 B.

        The step makes 13 metered arrays: the leaf x, the low-pass
        channel's three spmm hops and its combine output, the high-pass
        channel's three ``L̃ p = p − Ã p`` steps (an spmm and a sub each)
        and its combine output, and the γ combine. Its constant θ keeps
        no hop, so each dies once the recurrence moves past it. The peak
        is the high-pass channel's second step: x, the low-pass output,
        ``L̃x``, ``ÃL̃x`` and ``L̃²x`` are live. Backward allocates nothing
        metered.
        """
        filter_ = make_filter("fbgnn2", num_hops=3)
        gamma = Tensor(filter_.parameter_spec()["gamma"].init,
                       requires_grad=True)
        ctx = PropagationContext.for_graph(small_graph)
        telemetry.configure()
        try:
            x = Tensor(small_graph.features, requires_grad=True)
            out = filter_.forward(ctx, x, {"gamma": gamma})
            out.backward(np.ones_like(out.data))
            ledger = telemetry.get_ledger()
            count, peak = ledger.alloc_count, ledger.peak_bytes
        finally:
            telemetry.shutdown()
        term = x.data.nbytes
        assert term == 271 * 1433 * 4
        assert (count, peak) == (13, 5 * term) == (13, 7_766_860)
        assert gamma.grad is not None

    def test_standalone_precompute_opens_no_planner(self, small_graph,
                                                    monkeypatch):
        seen = self._record_planner(monkeypatch)
        run_node_classification(small_graph, "ppr", scheme="mini_batch",
                                config=TrainConfig(epochs=1, patience=0))
        assert seen == [None]

    def test_sweep_precompute_joins_the_sweep_planner(self, monkeypatch):
        from repro.bench.experiments import efficiency_experiment

        seen = self._record_planner(monkeypatch)
        telemetry.configure()
        try:
            rows = efficiency_experiment(
                ("cora",), filters=("ppr", "monomial"),
                schemes=("mini_batch",), scale_override=0.1,
                config=TrainConfig(epochs=1, patience=0, eval_every=10))
            hits = telemetry.get_metrics().counter_values().get(
                "plan.terms.hit", 0)
        finally:
            telemetry.shutdown()
        assert [row["status"] for row in rows] == ["ok", "ok"]
        assert len(seen) == 2 and seen[0] is not None and seen[0] is seen[1]
        assert hits > 0


class TestDeviceFactory:
    def test_unbounded(self):
        assert make_device(None).capacity_bytes is None

    def test_bounded(self):
        assert make_device(2.0).capacity_bytes == 2 * 1024 ** 3
