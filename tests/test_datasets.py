"""Dataset registry, synthesis fidelity, splits, and signal tasks."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.experiments import DEFAULT_SCALES
from repro.datasets import (
    DATASET_NAMES,
    DATASETS,
    SIGNAL_FUNCTIONS,
    SIGNAL_NAMES,
    SynthesisConfig,
    edge_split,
    get_spec,
    make_regression_task,
    random_split,
    stratified_split,
    synthesize,
)
from repro.datasets.synthesis import _sample_edges
from repro.errors import DatasetError
from repro.graph import node_homophily

#: Every registry spec at the benches' default scale (all ≤ 20 000 nodes)
#: on two seeds, plus the points the performance benchmark synthesises.
GOLDEN_CASES = [
    (name, DEFAULT_SCALES[spec.scale_class], seed)
    for name, spec in DATASETS.items() for seed in (0, 1)
] + [("roman", 0.5, 0), ("tolokers", 0.2, 0), ("minesweeper", 0.12, 0),
     ("pokec", 0.005, 0), ("pokec", 0.01, 0)]


def _case_id(name, scale, seed):
    return f"{name}@{scale:g}/{seed}"


def synthesis_digest(graph) -> str:
    """sha256 over the CSR arrays, features and labels with their dtypes."""
    digest = hashlib.sha256()
    adjacency = graph.adjacency
    for array in (adjacency.indptr, adjacency.indices, adjacency.data,
                  graph.features, graph.labels):
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def synthesis_golden() -> dict:
    """Recompute every golden digest (``json.dumps`` this to re-capture)."""
    return {_case_id(*case): synthesis_digest(synthesize(*case))
            for case in GOLDEN_CASES}


class TestRegistry:
    def test_twenty_two_datasets(self):
        assert len(DATASET_NAMES) == 22

    def test_scale_partition(self):
        classes = [spec.scale_class for spec in DATASETS.values()]
        assert (classes.count("S"), classes.count("M"),
                classes.count("L")) == (11, 6, 5)

    def test_homophily_partition_covers_all(self):
        assert all(spec.homophily_class in ("homo", "hetero")
                   for spec in DATASETS.values())

    def test_known_stats(self):
        cora = get_spec("cora")
        assert cora.nodes == 2708
        assert cora.edges == 10556
        assert cora.num_classes == 7
        assert cora.metric == "accuracy"

    def test_roc_auc_datasets_binary(self):
        for spec in DATASETS.values():
            if spec.metric == "roc_auc":
                assert spec.is_binary

    def test_case_insensitive_lookup(self):
        assert get_spec("CORA").name == "cora"

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_spec("imagenet")

    def test_average_degree(self):
        assert get_spec("wiki").average_degree > get_spec("cora").average_degree


class TestSynthesis:
    @pytest.mark.parametrize("name", ["cora", "roman", "penn94", "genius"])
    def test_homophily_within_tolerance(self, name):
        spec = get_spec(name)
        scale = {"S": 0.5, "M": 0.02, "L": 0.005}[spec.scale_class]
        graph = synthesize(name, scale=scale, seed=0)
        assert abs(node_homophily(graph) - spec.homophily) < 0.08

    def test_node_count_scales(self):
        spec = get_spec("pubmed")
        graph = synthesize("pubmed", scale=0.1, seed=0)
        assert abs(graph.num_nodes - spec.nodes * 0.1) < 2

    def test_feature_width_faithful(self):
        graph = synthesize("citeseer", scale=0.1, seed=0)
        assert graph.num_features == get_spec("citeseer").num_features

    def test_all_classes_present(self):
        graph = synthesize("roman", scale=0.05, seed=0)
        assert len(np.unique(graph.labels)) == graph.num_classes

    def test_deterministic(self):
        a = synthesize("cora", scale=0.1, seed=9)
        b = synthesize("cora", scale=0.1, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.features, b.features)
        assert (a.adjacency != b.adjacency).nnz == 0

    def test_seed_changes_graph(self):
        a = synthesize("cora", scale=0.1, seed=1)
        b = synthesize("cora", scale=0.1, seed=2)
        assert (a.adjacency != b.adjacency).nnz > 0

    def test_minimum_floors(self):
        graph = synthesize("cora", scale=0.001, seed=0)
        assert graph.num_nodes >= 60

    def test_degree_tail_widens_distribution(self):
        flat = synthesize("cora", scale=0.3, seed=0,
                          config=SynthesisConfig(degree_tail=0.05))
        heavy = synthesize("cora", scale=0.3, seed=0,
                           config=SynthesisConfig(degree_tail=1.5))
        assert heavy.degrees.std() > flat.degrees.std()

    def test_feature_signal_controls_separability(self):
        weak = synthesize("cora", scale=0.2, seed=0,
                          config=SynthesisConfig(feature_signal=0.05))
        strong = synthesize("cora", scale=0.2, seed=0,
                            config=SynthesisConfig(feature_signal=3.0))

        def centroid_spread(graph):
            means = np.stack([
                graph.features[graph.labels == c].mean(axis=0)
                for c in range(graph.num_classes)])
            return np.linalg.norm(means - means.mean(axis=0), axis=1).mean()

        assert centroid_spread(strong) > centroid_spread(weak)

    def test_all_self_loop_draw_is_an_empty_graph_error(self):
        with pytest.raises(DatasetError, match="empty graph"):
            _sample_edges(np.random.default_rng(0), np.zeros(1, np.int64),
                          10, 0.5, 1.0)


class TestSynthesisGolden:
    """Seeded synthesis is bit-reproducible across implementation changes.

    ``tests/data/synthesis_golden.json`` was captured at commit 4ef51b3,
    before edge dedup moved from a row-wise ``np.unique(axis=0)`` to one
    sorted int64 key and ``Graph`` stopped calling ``setdiag`` on an empty
    diagonal. Both changes must leave every digest unchanged.
    """

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "synthesis_golden.json").read_text())

    def test_golden_covers_every_case(self):
        assert sorted(self.GOLDEN) == sorted(_case_id(*c) for c in GOLDEN_CASES)

    @pytest.mark.parametrize("name,scale,seed", GOLDEN_CASES,
                             ids=[_case_id(*c) for c in GOLDEN_CASES])
    def test_digest_matches(self, name, scale, seed):
        graph = synthesize(name, scale=scale, seed=seed)
        assert synthesis_digest(graph) == self.GOLDEN[_case_id(name, scale, seed)]


class TestSplits:
    def test_random_split_disjoint_and_complete(self):
        split = random_split(100, seed=0)
        assert split.num_nodes == 100
        combined = np.concatenate([split.train, split.valid, split.test])
        assert len(np.unique(combined)) == 100

    def test_default_fractions(self):
        split = random_split(1000, seed=0)
        assert len(split.train) == 600
        assert len(split.valid) == 200

    def test_fraction_validation(self):
        with pytest.raises(DatasetError):
            random_split(10, fractions=(0.5, 0.5, 0.5))
        with pytest.raises(DatasetError):
            stratified_split(np.zeros(10, dtype=int), fractions=(0.9, 0.2, -0.1))

    def test_split_seeded(self):
        a = random_split(50, seed=3)
        b = random_split(50, seed=3)
        np.testing.assert_array_equal(a.train, b.train)

    def test_stratified_balances_classes(self):
        labels = np.array([0] * 50 + [1] * 10)
        split = stratified_split(labels, seed=0)
        train_fraction_minor = (labels[split.train] == 1).sum() / 10
        assert train_fraction_minor == pytest.approx(0.6, abs=0.1)

    def test_stratified_less_variance_than_random(self):
        labels = np.array([0] * 90 + [1] * 10)
        random_counts, stratified_counts = [], []
        for seed in range(10):
            random_counts.append((labels[random_split(100, seed=seed).train] == 1).sum())
            stratified_counts.append(
                (labels[stratified_split(labels, seed=seed).train] == 1).sum())
        assert np.std(stratified_counts) <= np.std(random_counts)

    def test_split_overlap_detected(self):
        from repro.datasets import Split

        with pytest.raises(DatasetError):
            Split(train=np.array([0, 1]), valid=np.array([1]), test=np.array([2]))

    def test_edge_split(self):
        edges = np.arange(40).reshape(20, 2)
        train, valid, test = edge_split(edges, seed=0)
        assert len(train) == 16 and len(valid) == 2 and len(test) == 2
        combined = np.concatenate([train, valid, test])
        assert len(np.unique(combined, axis=0)) == 20


class TestSignals:
    def test_five_functions(self):
        assert len(SIGNAL_NAMES) == 5
        assert set(SIGNAL_NAMES) == {"band", "combine", "high", "low", "reject"}

    def test_function_shapes(self):
        lams = np.linspace(0, 2, 50)
        assert SIGNAL_FUNCTIONS["low"](lams)[0] == pytest.approx(1.0)
        assert SIGNAL_FUNCTIONS["low"](lams)[-1] == pytest.approx(0.0, abs=1e-8)
        assert SIGNAL_FUNCTIONS["high"](lams)[0] == pytest.approx(0.0)
        assert SIGNAL_FUNCTIONS["band"](np.array([1.0]))[0] == pytest.approx(1.0)
        assert SIGNAL_FUNCTIONS["reject"](np.array([1.0]))[0] == pytest.approx(0.0)

    def test_regression_task_exactness(self, small_graph):
        """Target must equal exact spectral filtering of the input."""
        from repro.spectral import laplacian_eigendecomposition

        task = make_regression_task(small_graph, "low", seed=0)
        eigenvalues, eigenvectors = laplacian_eigendecomposition(small_graph)
        response = SIGNAL_FUNCTIONS["low"](eigenvalues)
        expected = eigenvectors @ (response[:, None] *
                                   (eigenvectors.T @ task.input_signal))
        np.testing.assert_allclose(task.target_signal, expected, atol=1e-3)

    def test_unknown_signal(self, small_graph):
        with pytest.raises(DatasetError):
            make_regression_task(small_graph, "notch")

    def test_task_shapes(self, small_graph):
        task = make_regression_task(small_graph, "band", num_channels=3)
        assert task.input_signal.shape == (small_graph.num_nodes, 3)
        assert task.target_signal.shape == (small_graph.num_nodes, 3)
        assert task.eigenvalues.shape == (small_graph.num_nodes,)
