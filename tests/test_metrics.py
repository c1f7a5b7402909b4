"""Tests for confusion matrices, the metric suite, and timed evaluation."""

from dataclasses import astuple

import numpy as np
import pytest

import flowshap as fs

from conftest import SCVIC_TEST_COUNTS, make_table, naive_report, separable_table


class TestConfusion:
    def test_diagonal_when_perfect(self):
        cm = fs.confusion([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert cm.counts.tolist() == [[1, 0, 0], [0, 2, 0], [0, 0, 1]]

    def test_empty_sequences(self):
        cm = fs.confusion([], [], 2)
        assert cm.counts.tolist() == [[0, 0], [0, 0]]

    def test_hand_counts(self):
        cm = fs.confusion([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert cm.counts.tolist() == [[1, 1], [0, 2]]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fs.confusion([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            fs.confusion([0, 5], [0, 1], 2)

    def test_total_equals_samples(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, 50)
        y_pred = rng.integers(0, 4, 50)
        cm = fs.confusion(y_true, y_pred, 4)
        assert cm.counts.sum() == 50


def scalar_per_class_metrics(counts):
    """One class at a time with a scalar zero-denominator rule: the reference
    the masked divisions must equal bitwise."""
    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = []
    for k in range(counts.shape[0]):
        tp = int(counts[k, k])
        fp = int(counts[:, k].sum()) - tp
        fn = int(counts[k, :].sum()) - tp
        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        f1 = ratio(2.0 * precision * recall, precision + recall)
        out.append((precision, recall, f1, tp + fn))
    return out


class TestPerClassMetrics:
    def test_equals_the_scalar_loop_bitwise(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            k = int(rng.integers(1, 9))
            counts = rng.integers(0, [4, 60, 10**9][trial % 3], size=(k, k))
            counts[rng.random(k) < 0.25] = 0  # classes that never occur
            counts[:, rng.random(k) < 0.25] = 0  # classes never predicted
            per_class = fs.per_class_metrics(fs.ConfusionMatrix(counts))
            assert [astuple(m) for m in per_class] == scalar_per_class_metrics(counts)
            for m in per_class:
                assert all(type(v) is float for v in (m.precision, m.recall, m.f1))
                assert type(m.support) is int

    def test_perfect_diagonal(self):
        cm = fs.confusion([0, 1, 2], [0, 1, 2], 3)
        for m in fs.per_class_metrics(cm):
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_zero_support_conventions(self):
        cm = fs.confusion([0, 0], [0, 0], 2)
        silent = fs.per_class_metrics(cm)[1]
        assert (silent.precision, silent.recall, silent.f1, silent.support) == (0.0, 0.0, 0.0, 0)

    def test_hand_example(self):
        # TP=8, FP=2, FN=2 for class 0
        y_true = [0] * 8 + [1] * 2 + [0] * 2
        y_pred = [0] * 8 + [0] * 2 + [1] * 2
        m = fs.per_class_metrics(fs.confusion(y_true, y_pred, 2))[0]
        assert m.precision == pytest.approx(0.8)
        assert m.recall == pytest.approx(0.8)
        assert m.f1 == pytest.approx(0.8)


class TestAggregate:
    def test_balanced_macro_equals_weighted(self):
        y_true = [0] * 10 + [1] * 10
        y_pred = [0] * 8 + [1] * 2 + [1] * 7 + [0] * 3
        per_class = fs.per_class_metrics(fs.confusion(y_true, y_pred, 2))
        _, macro, weighted = fs.aggregate(per_class)
        assert macro.f1 == pytest.approx(weighted.f1)
        assert macro.precision == pytest.approx(weighted.precision)

    def test_weighted_mean_arithmetic(self):
        per_class = [
            fs.ClassMetrics(precision=1.0, recall=1.0, f1=1.0, support=90),
            fs.ClassMetrics(precision=0.0, recall=0.0, f1=0.0, support=10),
        ]
        _, macro, weighted = fs.aggregate(per_class)
        assert macro.f1 == pytest.approx(0.5)
        assert weighted.f1 == pytest.approx(0.9)

    def test_single_present_class_accuracy_is_recall(self):
        y_true = [0] * 7
        y_pred = [0] * 5 + [1] * 2
        per_class = fs.per_class_metrics(fs.confusion(y_true, y_pred, 2))
        accuracy, _, _ = fs.aggregate(per_class)
        assert accuracy == pytest.approx(per_class[0].recall)

    def test_zero_samples_rejected(self):
        per_class = [fs.ClassMetrics(0.0, 0.0, 0.0, 0)]
        with pytest.raises(ValueError):
            fs.aggregate(per_class)


class TestNaiveLoopOracle:
    def test_matches_on_random_fixtures(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            K = int(rng.integers(2, 8))
            n = int(rng.integers(1, 120))
            y_true = rng.integers(0, K, n)
            y_pred = rng.integers(0, K, n)
            cm = fs.confusion(y_true, y_pred, K)
            per_class = fs.per_class_metrics(cm)
            accuracy, macro, weighted = fs.aggregate(per_class)
            ref_acc, ref_pc, ref_macro, ref_weighted = naive_report(y_true, y_pred, K)
            assert accuracy == pytest.approx(ref_acc, abs=1e-12)
            for got, ref in zip(per_class, ref_pc):
                assert got.support == ref[3]
                assert got.precision == pytest.approx(ref[0], abs=1e-12)
                assert got.recall == pytest.approx(ref[1], abs=1e-12)
                assert got.f1 == pytest.approx(ref[2], abs=1e-12)
            assert macro.precision == pytest.approx(ref_macro[0], abs=1e-12)
            assert macro.recall == pytest.approx(ref_macro[1], abs=1e-12)
            assert macro.f1 == pytest.approx(ref_macro[2], abs=1e-12)
            assert weighted.f1 == pytest.approx(ref_weighted[2], abs=1e-12)

    def test_micro_consistency(self):
        rng = np.random.default_rng(5)
        y_true = rng.integers(0, 3, 60)
        y_pred = rng.integers(0, 3, 60)
        cm = fs.confusion(y_true, y_pred, 3)
        accuracy, _, _ = fs.aggregate(fs.per_class_metrics(cm))
        assert accuracy == pytest.approx(np.trace(cm.counts) / 60)

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(8)
        y_true = rng.integers(0, 4, 80)
        y_pred = rng.integers(0, 4, 80)
        perm = np.array([2, 0, 3, 1])
        acc_a, macro_a, weighted_a = fs.aggregate(
            fs.per_class_metrics(fs.confusion(y_true, y_pred, 4))
        )
        acc_b, macro_b, weighted_b = fs.aggregate(
            fs.per_class_metrics(fs.confusion(perm[y_true], perm[y_pred], 4))
        )
        assert acc_a == pytest.approx(acc_b, abs=1e-12)
        for a, b in ((macro_a, macro_b), (weighted_a, weighted_b)):
            assert a.precision == pytest.approx(b.precision, abs=1e-12)
            assert a.recall == pytest.approx(b.recall, abs=1e-12)
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)
        # per-class results permute along with the classes
        pc_a = fs.per_class_metrics(fs.confusion(y_true, y_pred, 4))
        pc_b = fs.per_class_metrics(fs.confusion(perm[y_true], perm[y_pred], 4))
        for k in range(4):
            assert pc_a[k] == pc_b[perm[k]]


class TestTimedEvaluate:
    def test_perfect_classifier(self):
        table = separable_table(n=60, seed=14)
        ens = fs.train(table, fs.Hyperparams(n_estimators=10))
        report = fs.timed_evaluate(ens, table, train_seconds=1.25)
        assert report.accuracy == 1.0
        assert all(m.f1 == 1.0 for m in report.per_class)
        assert report.train_seconds == 1.25
        assert report.predict_seconds > 0 and np.isfinite(report.predict_seconds)

    def test_majority_predictor_on_benchmark_test_histogram(self):
        # constant prediction of the dominant class over the published test
        # histogram; expectations recomputed from first principles
        names = sorted(SCVIC_TEST_COUNTS)
        counts = [SCVIC_TEST_COUNTS[n] for n in names]
        majority = int(np.argmax(counts))
        y_true = np.repeat(np.arange(6), counts)
        y_pred = np.full(len(y_true), majority)
        accuracy, macro, _ = fs.aggregate(fs.per_class_metrics(fs.confusion(y_true, y_pred, 6)))
        total = sum(counts)
        expected_acc = counts[majority] / total
        precision = expected_acc
        expected_f1 = 2 * precision / (precision + 1.0) / 6
        assert accuracy == pytest.approx(expected_acc, abs=1e-12)
        assert macro.f1 == pytest.approx(expected_f1, abs=1e-12)
        assert accuracy == pytest.approx(0.983, abs=5e-4)
        assert macro.f1 == pytest.approx(0.165, abs=5e-4)

    def test_schema_mismatch(self):
        table = separable_table(n=20, seed=1)
        ens = fs.train(table, fs.Hyperparams(n_estimators=1))
        other = make_table(table.features[:, :1], table.labels)
        with pytest.raises(ValueError):
            fs.timed_evaluate(ens, other)

    def test_report_dict_layout(self):
        table = separable_table(n=30, seed=2)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2))
        doc = fs.metrics.report_to_dict(fs.timed_evaluate(ens, table, train_seconds=0.5))
        assert set(doc) == {"accuracy", "per_class", "macro", "weighted", "timing"}
        assert {row["class"] for row in doc["per_class"]} == {"c0", "c1"}
        assert doc["timing"]["train_seconds"] == 0.5
