"""Metrics against hand-computed values."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.training import accuracy, evaluate, macro_f1, r2_score, roc_auc


class TestAccuracy:
    def test_perfect(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half(self):
        logits = np.array([[2.0, 0.0], [2.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_shape_check(self):
        with pytest.raises(TrainingError):
            accuracy(np.zeros(4), np.zeros(4))

    def test_label_length_checked(self):
        # A length-1 label array used to broadcast against every row.
        logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TrainingError):
            accuracy(logits, np.array([1]))


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_inverted(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.0

    def test_random_is_half(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        labels = rng.integers(0, 2, size=2000)
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_ties_get_midrank(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_known_value(self):
        # 1 positive ranked above 1 of 2 negatives: AUC = 0.5.
        scores = np.array([0.3, 0.5, 0.7])
        labels = np.array([0, 1, 0])
        assert roc_auc(scores, labels) == pytest.approx(0.5)

    def test_two_column_logits(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert roc_auc(logits, np.array([0, 1])) == 1.0

    def test_single_column(self):
        assert roc_auc(np.array([[0.1], [0.9]]), np.array([0, 1])) == 1.0

    def test_needs_both_classes(self):
        with pytest.raises(TrainingError):
            roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_multiclass_rejected(self):
        with pytest.raises(TrainingError):
            roc_auc(np.zeros((3, 4)), np.array([0, 1, 0]))

    def test_label_outside_01_rejected(self):
        # Label 2 used to enter the rank sum as neither class: AUC 2.0.
        with pytest.raises(TrainingError):
            roc_auc(np.array([0.1, 0.2, 0.3]), np.array([2, 0, 1]))

    def test_bool_labels(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(scores, np.array([False, False, True, True])) == 1.0

    def test_label_length_checked(self):
        with pytest.raises(TrainingError):
            roc_auc(np.array([0.1, 0.2, 0.3]), np.array([0, 1]))


class TestR2:
    def test_perfect(self, rng):
        y = rng.normal(size=(10, 2))
        assert r2_score(y, y) == pytest.approx(1.0)

    def test_mean_predictor_is_zero(self, rng):
        y = rng.normal(size=(50,))
        pred = np.full_like(y, y.mean())
        assert r2_score(pred, y) == pytest.approx(0.0, abs=1e-9)

    def test_worse_than_mean_is_negative(self, rng):
        y = rng.normal(size=(50,))
        assert r2_score(-5 * y, y) < 0

    def test_shape_mismatch(self):
        with pytest.raises(TrainingError):
            r2_score(np.zeros(3), np.zeros(4))


class TestMacroF1:
    def test_perfect(self):
        logits = np.eye(3) * 5
        assert macro_f1(logits, np.array([0, 1, 2])) == 1.0

    def test_degenerate_class_zero(self):
        # Everything predicted class 0; class 1 gets F1 = 0.
        logits = np.array([[1.0, 0.0]] * 4)
        labels = np.array([0, 0, 1, 1])
        # class0: precision 0.5 recall 1 -> F1 2/3; class1: 0.
        assert macro_f1(logits, labels) == pytest.approx(1.0 / 3.0)

    def test_label_length_checked(self):
        logits = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(TrainingError):
            macro_f1(logits, np.array([1]))


class TestDispatch:
    def test_by_name(self):
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert evaluate("accuracy", logits, np.array([0, 1])) == 1.0
        assert evaluate("roc_auc", logits, np.array([0, 1])) == 1.0

    def test_unknown_metric(self):
        with pytest.raises(TrainingError):
            evaluate("bleu", np.zeros((2, 2)), np.zeros(2))
