"""Tests for forward selection and the filter-method baselines."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowshap as fs
from flowshap import metrics
from flowshap.selection import ANOVA_SENTINEL

from conftest import make_table, replay_forward_trace


class TestForwardPass:
    def test_documented_trace(self):
        scores = {("A",): 0.60, ("A", "B"): 0.55, ("A", "C"): 0.70}
        trace, selected, best = fs.run_forward_pass(
            ["A", "B", "C"], lambda subset: scores[tuple(subset)]
        )
        assert selected == ["A", "C"]
        assert best == pytest.approx(0.70)
        assert len(trace) == 3
        assert [t.accepted for t in trace] == [True, False, True]

    def test_all_zero_scores(self):
        trace, selected, best = fs.run_forward_pass(["A", "B"], lambda s: 0.0)
        assert selected == []
        assert best == 0.0
        assert len(trace) == 2

    def test_equality_rejected(self):
        values = iter([0.6, 0.6])
        trace, selected, best = fs.run_forward_pass(["A", "B"], lambda s: next(values))
        assert selected == ["A"]
        assert trace[1].accepted is False

    def test_max_candidates(self):
        calls = []

        def evaluate(subset):
            calls.append(tuple(subset))
            return 0.0

        fs.run_forward_pass(["A", "B", "C", "D"], evaluate, max_candidates=2)
        assert len(calls) == 2

    def test_patience_stops_early(self):
        values = iter([0.5, 0.1, 0.1, 0.9])
        trace, selected, _ = fs.run_forward_pass(
            ["A", "B", "C", "D"], lambda s: next(values), patience=2
        )
        assert len(trace) == 3
        assert selected == ["A"]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fs.run_forward_pass([], lambda s: 0.0)

    @pytest.mark.parametrize("limits", [
        {"max_candidates": 0}, {"max_candidates": -1}, {"patience": 0},
    ])
    def test_limits_below_one_rejected(self, limits):
        with pytest.raises(ValueError, match="at least 1"):
            fs.run_forward_pass(["A", "B", "C"], lambda s: 0.0, **limits)

    def test_accepted_scores_strictly_increase_and_replay(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            names = [f"f{i}" for i in range(int(rng.integers(3, 15)))]
            values = rng.choice([0.0, 0.2, 0.4, 0.4, 0.6, 0.8], size=len(names))
            it = iter(values.tolist())
            trace, selected, best = fs.run_forward_pass(names, lambda s: next(it))
            accepted = [t.f1 for t in trace if t.accepted]
            assert accepted == sorted(accepted)
            assert len(set(accepted)) == len(accepted)
            replay_selected, replay_best = replay_forward_trace(trace)
            assert replay_selected == selected
            assert replay_best == best


def planted_tables(n_informative=3, n_noise=5, seed=0):
    """Two classes separated along the informative features only."""
    rng = np.random.default_rng(seed)
    n = 160
    y = np.array([0, 1] * (n // 2))
    m = n_informative + n_noise
    X = rng.normal(size=(n, m))
    for j in range(n_informative):
        X[:, j] += 2.5 * y
    table = make_table(X, y)
    return fs.stratified_split(table, fs.SplitSpec(train_fraction=0.75, seed=seed))


class TestForwardSelect:
    def make_ranking(self, table):
        return fs.ImportanceRanking(
            entries=[(name, 1.0) for name in table.feature_names], scope="global"
        )

    def test_recovers_informative_features(self):
        train, test = planted_tables(seed=3)
        hp = fs.Hyperparams(n_estimators=5, max_depth=2)
        ens = fs.train(train, hp)
        ranking = fs.global_importance(fs.tree_shap(ens, test))
        result = fs.forward_select(ranking, train, test, hp, evaluation_scope="test")
        informative = {"f0", "f1", "f2"}
        assert len(set(result.selected) - informative) <= 1
        full_pred = fs.predict_classes(ens, test.features)
        full_f1 = fs.macro_f1(test.labels, full_pred, 2)
        assert result.f1_best >= 0.99 * full_f1

    def test_deterministic(self):
        train, test = planted_tables(seed=5)
        hp = fs.Hyperparams(n_estimators=3, max_depth=2)
        ranking = self.make_ranking(train)
        a = fs.forward_select(ranking, train, test, hp)
        b = fs.forward_select(ranking, train, test, hp)
        assert a.selected == b.selected
        assert a.trace == b.trace
        assert a.f1_best == b.f1_best

    def test_fit_is_a_fresh_fit_of_the_selection(self):
        train, test = planted_tables(seed=5)
        hp = fs.Hyperparams(n_estimators=3, max_depth=2)
        result = fs.forward_select(self.make_ranking(train), train, test, hp)
        assert result.selected
        ens, report = result.fit
        fresh_ens, fresh_report = metrics.fit_and_evaluate(
            train.restrict(result.selected), test.restrict(result.selected), hp
        )
        assert fs.serialize(ens) == fs.serialize(fresh_ens)
        untimed = {"train_seconds": 0.0, "predict_seconds": 0.0}
        assert replace(report, **untimed) == replace(fresh_report, **untimed)
        assert report.macro.f1 == result.f1_best

    def test_ranking_must_cover_features(self):
        train, test = planted_tables(seed=1)
        ranking = fs.ImportanceRanking(entries=[("f0", 1.0)], scope="global")
        with pytest.raises(fs.SchemaError, match="ranking"):
            fs.forward_select(ranking, train, test, fs.Hyperparams(n_estimators=1))

    def test_eval_schema_must_match(self):
        train, test = planted_tables(seed=2)
        ranking = self.make_ranking(train)
        broken = test.restrict(test.feature_names[:-1])
        with pytest.raises(fs.SchemaError, match="schema"):
            fs.forward_select(ranking, train, broken, fs.Hyperparams(n_estimators=1))

    def test_trace_records_every_candidate(self):
        train, test = planted_tables(seed=7)
        hp = fs.Hyperparams(n_estimators=2, max_depth=2)
        result = fs.forward_select(self.make_ranking(train), train, test, hp)
        assert [t.feature for t in result.trace] == list(train.feature_names)
        accepted = [t.f1 for t in result.trace if t.accepted]
        assert accepted == sorted(accepted)


class TestCorrelationScores:
    def test_label_copy_scores_one(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        X = np.column_stack([y.astype(float), np.ones(6)])
        table = make_table(X, y)
        scores = fs.correlation_scores(table)
        assert scores.scores[0] == pytest.approx(1.0)

    def test_constant_feature_scores_zero(self):
        table = make_table(np.ones((10, 1)), [0, 1] * 5)
        assert fs.correlation_scores(table).scores[0] == 0.0

    def test_matches_two_pass_pearson(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(100, 5))
        y = rng.integers(0, 3, 100)
        table = make_table(X, y)
        got = fs.correlation_scores(table).scores
        yv = y.astype(float)
        for j in range(5):
            x = X[:, j]
            mx, my = x.mean(), yv.mean()
            cov = ((x - mx) * (yv - my)).sum()
            ref = abs(cov) / np.sqrt(((x - mx) ** 2).sum() * ((yv - my) ** 2).sum())
            assert got[j] == pytest.approx(ref, abs=1e-12)

    def test_scores_do_not_depend_on_the_blas_thread_count(self):
        # A BLAS product splits its sums by thread; on a 20,000 x 77 table that
        # moved a few scores in their last bits between 1 and 2 threads.
        script = (
            "import sys, numpy as np, flowshap as fs\n"
            "rng = np.random.default_rng(20)\n"
            "X, y = rng.normal(size=(20000, 77)), rng.integers(0, 6, 20000)\n"
            "table = fs.FlowTable([f'f{i}' for i in range(77)], X, y, [str(k) for k in range(6)], np.ones(20000))\n"
            "sys.stdout.buffer.write(fs.correlation_scores(table).scores.tobytes())\n"
        )
        src = str(Path(fs.__file__).parents[1])
        runs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, check=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                     "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(runs[0]) == 77 * 8 and runs[0] == runs[1]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_scores_are_bitwise_the_two_copy_expression(self, order):
        table = degenerate_scoring_table()
        table = replace(table, features=np.asarray(table.features, order=order))  # restrict makes F order
        X, y = table.features, table.labels.astype(np.float64)
        xc = X - X.mean(axis=0)
        yc = y - y.mean()
        num = (xc * yc[:, None]).sum(axis=0)
        den = np.sqrt((xc * xc).sum(axis=0) * (yc * yc).sum())
        ref = np.divide(np.abs(num), den, out=np.zeros_like(den), where=den > 0)
        got = fs.correlation_scores(table).scores
        assert got[1] == 0.0 and got[0] == got[2]
        assert np.array_equal(got, ref)

    def test_peak_memory_is_one_table_copy(self):
        # One buffer is centred twice; the two-copy expression peaked at 2.05x.
        rng = np.random.default_rng(14)
        table = make_table(rng.lognormal(sigma=2.0, size=(5000, 77)), rng.integers(0, 6, 5000))
        tracemalloc.start()
        try:
            fs.correlation_scores(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * table.features.nbytes


class TestFitStageImports:
    def test_training_and_scoring_leave_numpy_ma_unloaded(self):
        # np.unique imports numpy.ma (about 1.3 MB) on its first call; train
        # and select need no module that prepare and explain do not load.
        script = (
            "import sys, numpy as np, flowshap as fs\n"
            "rng = np.random.default_rng(8)\n"
            "y = np.arange(120) % 3\n"
            "X = rng.normal(size=(120, 4)) + y[:, None] * [1.5, 0.0, 0.5, 0.0]\n"
            "table = fs.FlowTable(['a', 'b', 'c', 'd'], X, y, ['x', 'y', 'z'], np.ones(120))\n"
            "train, test = fs.stratified_split(table, fs.SplitSpec(train_fraction=0.75, seed=1))\n"
            "hp = fs.Hyperparams(n_estimators=2, max_depth=2)\n"
            "fs.train(train, hp)\n"
            "ranking = fs.ImportanceRanking(entries=[(f, 1.0) for f in table.feature_names], scope='global')\n"
            "assert fs.forward_select(ranking, train, test, hp).trace\n"
            "for score in (fs.correlation_scores, fs.chi_square_scores, fs.anova_scores):\n"
            "    score(train)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = str(Path(fs.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        )
        assert run.stdout == "False\n"


def degenerate_scoring_table():
    """Classes 0-3 of 5 (class 3 has 2 rows, class 4 none) over a constant
    column, a duplicated column, a heavily tied column, a heavy-tailed one and
    one far from zero, so that centring and scaling round."""
    rng = np.random.default_rng(31)
    y = np.array([0] * 150 + [1] * 60 + [2] * 25 + [3] * 2)
    rng.shuffle(y)
    base = rng.normal(size=y.size) + 0.7 * y
    X = np.column_stack([
        base,
        np.full(y.size, 4.25),
        base,
        rng.integers(0, 3, y.size).astype(float),
        rng.lognormal(sigma=3.0, size=y.size) * (1 + y),
        1e9 + rng.normal(size=y.size) * (1 + y),
    ])
    return make_table(X, y, n_classes=5)


class TestChiSquareScores:
    def test_identical_distribution_scores_zero(self):
        X = np.tile(np.array([[1.0], [2.0], [3.0]]), (2, 1))
        y = [0, 0, 0, 1, 1, 1]
        table = make_table(X, y)
        assert fs.chi_square_scores(table).scores[0] == pytest.approx(0.0, abs=1e-12)

    def test_one_class_concentration_is_maximal(self):
        n = 12
        y = np.array([0, 1, 2] * 4)
        X = np.zeros((n, 2))
        X[y == 0, 0] = 1.0   # concentrated in one class
        X[:, 1] = 0.5 + 0.001 * np.arange(n) % 2  # nearly uniform
        table = make_table(X, y)
        scores = fs.chi_square_scores(table).scores
        assert scores[0] > scores[1]
        assert scores[0] > 0

    def test_three_class_hand_computation(self):
        X = np.array([[0.0], [2.0], [4.0], [4.0], [2.0], [0.0]])
        y = np.array([0, 0, 1, 1, 2, 2])
        table = make_table(X, y)
        got = fs.chi_square_scores(table).scores[0]
        # scale to [0,1]: [0, .5, 1, 1, .5, 0]; per-class sums 0.5, 2.0, 0.5
        # expected per class: (2/6) * 3.0 = 1.0
        expected = (0.5 - 1.0) ** 2 / 1.0 + (2.0 - 1.0) ** 2 / 1.0 + (0.5 - 1.0) ** 2 / 1.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_feature_scores_zero(self):
        table = make_table(np.full((6, 1), 3.0), [0, 1] * 3)
        assert fs.chi_square_scores(table).scores[0] == 0.0

    def test_scores_are_bitwise_the_copying_expression(self):
        table = degenerate_scoring_table()
        X, y, n = table.features, table.labels, table.n_rows
        lo = X.min(axis=0)
        span = X.max(axis=0) - lo
        scaled = np.divide(X - lo, span, out=np.zeros_like(X), where=span > 0)
        total = scaled.sum(axis=0)
        ref = np.zeros(table.n_features)
        for k in range(len(table.class_names)):
            mask = y == k
            observed = scaled[mask].sum(axis=0)
            expected = (mask.sum() / n) * total
            ref += np.divide((observed - expected) ** 2, expected,
                             out=np.zeros_like(expected), where=expected > 0)
        got = fs.chi_square_scores(table).scores
        assert got[1] == 0.0 and got[0] == got[2]
        assert np.array_equal(got, ref)


class TestAnovaScores:
    def test_equal_class_means_zero(self):
        X = np.array([[1.0], [2.0], [1.0], [2.0]])
        y = [0, 0, 1, 1]
        assert fs.anova_scores(make_table(X, y)).scores[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")  # numpy warns on a where= without out=
    def test_constant_feature_scores_zero(self):
        table = make_table(np.full((6, 1), 3.0), [0, 1] * 3)
        assert fs.anova_scores(table).scores[0] == 0.0

    def test_perfect_separation_sentinel(self):
        X = np.array([[1.0], [1.0], [5.0], [5.0]])
        y = [0, 0, 1, 1]
        scores = fs.anova_scores(make_table(X, y))
        assert scores.scores[0] == ANOVA_SENTINEL
        assert fs.filter_select(scores, 1) == ["f0"]

    def test_matches_sums_of_squares_oracle(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 4))
        y = np.array([0] * 30 + [1] * 30)
        X[y == 1, 0] += 1.5
        got = fs.anova_scores(make_table(X, y)).scores
        for j in range(4):
            x = X[:, j]
            grand = x.mean()
            ssb = ssw = 0.0
            for k in (0, 1):
                grp = x[y == k]
                ssb += len(grp) * (grp.mean() - grand) ** 2
                ssw += ((grp - grp.mean()) ** 2).sum()
            ref = (ssb / 1.0) / (ssw / (60 - 2))
            assert got[j] == pytest.approx(ref, abs=1e-10)

    def test_singleton_class_error(self):
        table = make_table(np.zeros((3, 1)), [0, 0, 1])
        with pytest.raises(ValueError, match="single sample"):
            fs.anova_scores(table)

    def test_scores_are_bitwise_the_copying_expression(self):
        table = degenerate_scoring_table()
        X, y, n = table.features, table.labels, table.n_rows
        present = [k for k in range(len(table.class_names)) if (y == k).any()]
        grand = X.mean(axis=0)
        ssb = np.zeros(table.n_features)
        ssw = np.zeros(table.n_features)
        for k in present:
            block = X[y == k]
            mean_k = block.mean(axis=0)
            ssb += block.shape[0] * (mean_k - grand) ** 2
            ssw += ((block - mean_k) ** 2).sum(axis=0)
        msb = ssb / (len(present) - 1)
        msw = ssw / (n - len(present))
        ref = np.divide(msb, msw, out=np.where(msb > 0, ANOVA_SENTINEL, 0.0), where=msw > 0)
        got = fs.anova_scores(table).scores
        assert got[1] == 0.0 and got[0] == got[2]
        assert np.array_equal(got, ref)


class TestFilterSelect:
    def test_k_equals_feature_count(self):
        scores = fs.FilterScores("anova", np.array([0.3, 0.9, 0.1]), ["a", "b", "c"])
        assert fs.filter_select(scores, 3) == ["b", "a", "c"]

    def test_k_one(self):
        scores = fs.FilterScores("anova", np.array([0.3, 0.9, 0.1]), ["a", "b", "c"])
        assert fs.filter_select(scores, 1) == ["b"]

    def test_lexicographic_tie_break(self):
        scores = fs.FilterScores("anova", np.array([0.5, 0.5, 0.1]), ["b", "a", "c"])
        assert fs.filter_select(scores, 2) == ["a", "b"]

    def test_planted_twelve_features(self):
        rng = np.random.default_rng(30)
        n = 200
        y = rng.integers(0, 2, n)
        X = rng.normal(scale=0.1, size=(n, 20))
        planted = sorted(rng.choice(20, size=12, replace=False).tolist())
        for j in planted:
            X[:, j] += 5.0 * y
        table = make_table(X, y)
        chosen = fs.filter_select(fs.anova_scores(table), 12)
        assert sorted(chosen) == sorted(f"f{j}" for j in planted)

    def test_k_out_of_range(self):
        scores = fs.FilterScores("anova", np.array([1.0]), ["a"])
        with pytest.raises(ValueError):
            fs.filter_select(scores, 2)
        with pytest.raises(ValueError):
            fs.filter_select(scores, 0)


class TestFilterInvariances:
    def offsets_table(self, seed=40):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, 80)
        X[:, 1] += 1.2 * y
        return make_table(X, y)

    @pytest.mark.parametrize("scorer", [fs.correlation_scores, fs.chi_square_scores, fs.anova_scores])
    def test_row_permutation_invariance(self, scorer):
        table = self.offsets_table()
        rng = np.random.default_rng(1)
        perm = rng.permutation(table.n_rows)
        shuffled = table.take(perm)
        assert np.allclose(scorer(table).scores, scorer(shuffled).scores, atol=1e-10)

    @pytest.mark.parametrize("scorer", [fs.correlation_scores, fs.chi_square_scores, fs.anova_scores])
    def test_affine_rescale_invariance(self, scorer):
        table = self.offsets_table()
        rescaled = make_table(table.features * 3.5 + 11.0, table.labels)
        assert np.allclose(scorer(table).scores, scorer(rescaled).scores, rtol=1e-9, atol=1e-9)
