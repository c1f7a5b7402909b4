"""Tests for gradients, split search, training, prediction, and the model format."""

import functools
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowshap as fs
from flowshap import gbt
from flowshap.gbt import Tree, TreeEnsemble, _grad_hess_matrix

from conftest import make_table, random_multiclass_table, separable_table


def crossentropy(margins, true_class, weight):
    # extended precision keeps the roundoff of the second difference at step
    # 1e-5 well below the 1e-4 comparison tolerance
    m = np.asarray(margins, dtype=np.longdouble)
    z = m - m.max()
    logp = z - np.log(np.exp(z).sum())
    return -np.longdouble(weight) * logp[true_class]


def fd_grad_hess(margins, true_class, weight, step=1e-5):
    m = np.asarray(margins, dtype=np.longdouble)
    g = np.empty(len(m))
    h = np.empty(len(m))
    base = crossentropy(m, true_class, weight)
    eps = np.longdouble(step)
    for k in range(len(m)):
        up = m.copy()
        up[k] += eps
        down = m.copy()
        down[k] -= eps
        lu = crossentropy(up, true_class, weight)
        ld = crossentropy(down, true_class, weight)
        g[k] = float((lu - ld) / (2 * eps))
        h[k] = float((lu - 2 * base + ld) / eps**2)
    return g, h


class TestHyperparams:
    def test_published_defaults(self):
        hp = fs.Hyperparams()
        assert hp.n_estimators == 100
        assert hp.learning_rate == 0.3
        assert hp.max_depth == 6
        assert hp.min_child_weight == 1.0
        assert hp.gamma == 0.0
        assert hp.reg_lambda == 1.0
        assert hp.reg_alpha == 0.0
        assert hp.objective == "multiclass_softmax"

    def test_validation(self):
        with pytest.raises(ValueError):
            fs.Hyperparams(learning_rate=0.0)
        with pytest.raises(ValueError):
            fs.Hyperparams(max_depth=0)
        with pytest.raises(ValueError):
            fs.Hyperparams(gamma=-1.0)
        with pytest.raises(ValueError):
            fs.Hyperparams(objective="rank")

    @pytest.mark.parametrize("field, value", [("n_estimators", 2.7), ("max_depth", 2.0), ("seed", True)])
    def test_integer_fields_reject_other_types(self, field, value):
        # the model document holds them as JSON integers, so a model trained
        # under any other value could not be loaded again
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            fs.Hyperparams(**{field: value})


class TestSoftmaxGradHess:
    def test_symmetric_two_class(self):
        g, h = fs.softmax_grad_hess([0.0, 0.0], 0, 1.0)
        assert g.tolist() == [-0.5, 0.5]
        assert h.tolist() == [0.25, 0.25]

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            K = int(rng.integers(2, 7))
            margins = rng.normal(scale=2, size=K)
            w = float(rng.uniform(0.1, 5))
            g, _ = fs.softmax_grad_hess(margins, int(rng.integers(K)), w)
            assert abs(g.sum()) <= 1e-12 * w

    def test_finite_difference_example(self):
        margins = [1.0, 0.5, -0.2]
        g, h = fs.softmax_grad_hess(margins, 2, 2.0)
        g_fd, h_fd = fd_grad_hess(margins, 2, 2.0)
        assert np.abs((g - g_fd) / g_fd).max() < 1e-4
        assert np.abs((h - h_fd) / h_fd).max() < 1e-4

    def test_finite_difference_random_draws(self):
        # per-component relative 1e-4; the 1e-3 * weight addend only matters
        # for components at the oracle's own noise level
        rng = np.random.default_rng(42)
        for _ in range(100):
            K = int(rng.integers(2, 7))
            margins = rng.normal(scale=2, size=K)
            y = int(rng.integers(K))
            w = float(rng.uniform(0.2, 4))
            g, h = fs.softmax_grad_hess(margins, y, w)
            g_fd, h_fd = fd_grad_hess(margins, y, w)
            assert (np.abs(g - g_fd) / (np.abs(g_fd) + 1e-3 * w)).max() < 1e-4
            assert (np.abs(h - h_fd) / (np.abs(h_fd) + 1e-3 * w)).max() < 1e-4

    def test_hessian_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g, h = fs.softmax_grad_hess(rng.normal(size=4), 1, 1.0)
            assert (h >= 0).all()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fs.softmax_grad_hess([0.0], 0, 1.0)
        with pytest.raises(ValueError):
            fs.softmax_grad_hess([0.0, 0.0], 0, 0.0)
        with pytest.raises(ValueError):
            fs.softmax_grad_hess([0.0, 0.0], 5, 1.0)


def expression_split_gain(GL, HL, GR, HR, hp):
    """The gain as one expression over the three gain terms: the reference the
    in-place sequence must equal bitwise."""
    return float(
        0.5 * (gbt._gain_terms(GL, HL, hp) + gbt._gain_terms(GR, HR, hp)
               - gbt._gain_terms(GL + GR, HL + HR, hp))
        - hp.gamma
    )


class TestSplitGain:
    @pytest.mark.parametrize("reg_alpha", [0.0, 1.0])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_equals_the_expression_bitwise(self, reg_alpha, gamma, reg_lambda):
        hp = fs.Hyperparams(reg_lambda=reg_lambda, reg_alpha=reg_alpha, gamma=gamma)
        rng = np.random.default_rng(5)
        sums = rng.normal(scale=3.0, size=(400, 4))
        sums[:, 1::2] = np.abs(sums[:, 1::2])
        sums[::7, 1] = 0.0  # zero hessian sums: a zero denominator under reg_lambda = 0
        sums[::11, 3] = 0.0
        for GL, HL, GR, HR in sums.tolist():
            assert fs.split_gain(GL, HL, GR, HR, hp) == expression_split_gain(GL, HL, GR, HR, hp)

    def test_symmetric_split_zero_gain_unregularized(self):
        hp = fs.Hyperparams(reg_lambda=0.0)
        assert fs.split_gain(1.5, 2.0, 1.5, 2.0, hp) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        hp = fs.Hyperparams(reg_lambda=1.0, reg_alpha=0.0, gamma=0.0)
        # 0.5 * (4/2 + 4/2 - 0/3)
        assert fs.split_gain(-2.0, 1.0, 2.0, 1.0, hp) == pytest.approx(2.0)

    def test_gamma_subtracts(self):
        hp = fs.Hyperparams(reg_lambda=1.0, gamma=3.0)
        assert fs.split_gain(-2.0, 1.0, 2.0, 1.0, hp) == pytest.approx(-1.0)

    def test_alpha_soft_threshold(self):
        hp = fs.Hyperparams(reg_lambda=1.0, reg_alpha=1.0)
        # thresholded G: -2 -> -1, 2 -> 1, parent 0 -> 0; 0.5 * (1/2 + 1/2)
        assert fs.split_gain(-2.0, 1.0, 2.0, 1.0, hp) == pytest.approx(0.5)

    @pytest.mark.parametrize("reg_alpha", [0.0, 1.0])
    @pytest.mark.parametrize("reg_lambda", [0.0, 1.0])
    def test_writes_into_no_callers_array(self, reg_alpha, reg_lambda):
        # The gain terms are written over their sums: split_gain must copy the
        # caller's, here 0-d float64 arrays, and score them as Python floats.
        hp = fs.Hyperparams(reg_lambda=reg_lambda, reg_alpha=reg_alpha, gamma=0.5)
        sums = [-2.5, 0.0, 1.75, 3.0]
        arrays = [np.array(s) for s in sums]
        assert fs.split_gain(*arrays, hp) == fs.split_gain(*sums, hp)
        assert [a.item() for a in arrays] == sums
        assert all(a.shape == () and a.dtype == np.float64 for a in arrays)

    # "error" also turns numpy's warning about a where= without out= into a
    # failure: the masked term must be 0, not uninitialised memory.
    @pytest.mark.filterwarnings("error")
    def test_zero_denominator_term_counts_zero(self):
        hp = fs.Hyperparams(reg_lambda=0.0)
        # the left child has HL + lambda = 0: 0.5 * (0 + 1/2 - 0/2)
        assert fs.split_gain(1.0, 0.0, -1.0, 2.0, hp) == 0.25


def block_spanning_table(seed, signal, width=5, m=13):
    """Integer-valued X, g and h whose root spans several feature blocks:
    three of five features at the default width, thirteen of one at width 1.

    Columns 0 and 7 are constant; column 5 repeats column 4 and column 10
    repeats column 9, each pair straddling a block boundary, and column 2
    repeats column 1, inside the first block at the default width. g leans on
    column ``signal``.
    """
    rng = np.random.default_rng(seed)
    n = gbt.SPLIT_BLOCK_ELEMENTS // width
    assert max(1, gbt.SPLIT_BLOCK_ELEMENTS // n) == width and n * m > gbt.SPLIT_BLOCK_ELEMENTS
    X = rng.integers(0, 8, size=(n, m)).astype(np.float64)
    X[:, 0] = 3.0
    X[:, 7] = -1.0
    X[:, 2] = X[:, 1]
    X[:, 5] = X[:, 4]
    X[:, 10] = X[:, 9]
    g = rng.integers(-2, 3, size=n) + 2.0 * (X[:, signal] < 3) - 1.0
    h = rng.integers(0, 4, size=n).astype(np.float64)
    return X, g, h


def negative_hessians(X, h):
    """Negative hessians on the rows where column 3 is low or high, so that
    column's first boundaries have left sums and its last ones right sums
    below -lambda; a positive middle keeps the node's sum positive."""
    ends = (X[:, 3] < 2) | (X[:, 3] > 5)
    return np.where(ends, h - 3.0, h + 3.0)


def zero_hessian_ends(X, h):
    """Zero hessians on the rows holding column 3's lowest and highest values."""
    return np.where((X[:, 3] == X[:, 3].min()) | (X[:, 3] == X[:, 3].max()), 0.0, h)


def enumerate_best_split(X, g, h, hp):
    """Independent enumeration over every feature and boundary with split_gain."""
    best = None
    for f in range(X.shape[1]):
        vals = sorted(set(X[:, f]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = X[:, f] < thr
            if min(h[left].sum(), h[~left].sum()) < hp.min_child_weight:
                continue
            gain = fs.split_gain(g[left].sum(), h[left].sum(), g[~left].sum(), h[~left].sum(), hp)
            if gain > 0 and (best is None or gain > best[2]):
                best = (f, thr, gain)
    return best


def on_threshold_table():
    """Rows whose values are adjacent floats, so split midpoints collapse onto
    the upper value and training rows lie exactly on thresholds."""
    rng = np.random.default_rng(6)
    lo = np.array([1.0, -2.0])
    up = np.nextafter(lo, np.inf)
    y = rng.integers(0, 3, size=60)
    X = np.where(rng.random((60, 2)) < 0.3 + 0.2 * y[:, None], up, lo)
    return make_table(X, y, n_classes=3)


class TestFindBestSplit:
    def test_constant_features_no_split(self):
        table = make_table(np.ones((6, 3)), [0, 0, 0, 1, 1, 1])
        g = np.array([-1.0, -1, -1, 1, 1, 1])
        h = np.ones(6)
        assert fs.find_best_split(np.arange(6), g, h, table, fs.Hyperparams()) is None

    @pytest.mark.parametrize(
        "seed, signal, hp, hessians, width",
        [
            (None, None, fs.Hyperparams(), None, None),
            (0, 4, fs.Hyperparams(), None, 5),
            (1, 9, fs.Hyperparams(min_child_weight=0.0), None, 5),
            (2, 4, fs.Hyperparams(min_child_weight=700.0, gamma=2.0), None, 5),
            (3, 9, fs.Hyperparams(min_child_weight=5.0, gamma=1.0, reg_alpha=1.5), None, 5),
            pytest.param(4, 4, fs.Hyperparams(reg_lambda=0.0, min_child_weight=0.0), None, 5,
                         marks=pytest.mark.filterwarnings("error")),  # zero-hessian children
            # the masked division: non-positive denominators on both sides of one
            # block, and admissible zero ones; then alpha without the gamma pass
            pytest.param(5, 4, fs.Hyperparams(min_child_weight=0.0), negative_hessians, 5,
                         marks=pytest.mark.filterwarnings("error")),
            pytest.param(6, 3, fs.Hyperparams(reg_lambda=0.0, min_child_weight=0.0), zero_hessian_ends, 5,
                         marks=pytest.mark.filterwarnings("error")),
            pytest.param(7, 9, fs.Hyperparams(gamma=0.0, reg_alpha=1.5), None, 5,
                         marks=pytest.mark.filterwarnings("error")),
            # 16,384 rows: every block holds one feature
            (8, 9, fs.Hyperparams(min_child_weight=5.0, gamma=1.0, reg_alpha=1.5), None, 1),
            pytest.param(9, 3, fs.Hyperparams(reg_lambda=0.0, min_child_weight=0.0), zero_hessian_ends, 1,
                         marks=pytest.mark.filterwarnings("error")),
        ],
        ids=["hand", "blocks-default", "blocks-mcw0", "blocks-mcw700-gamma", "blocks-alpha",
             "blocks-lambda0-mcw0", "blocks-negative-hessians", "blocks-lambda0-zero-hessian-ends",
             "blocks-alpha-gamma0", "one-feature-blocks-alpha", "one-feature-blocks-lambda0-zero-hessian-ends"],
    )
    def test_perfect_separation_matches_enumeration(self, seed, signal, hp, hessians, width):
        if seed is None:
            X = np.zeros((8, 3))
            X[:, 1] = [0, 0, 0, 0, 1, 1, 1, 1]
            X[:, 2] = [5, 1, 4, 2, 8, 6, 9, 7]
            g = np.array([-1.0] * 4 + [1.0] * 4)
            h = np.ones(8)
        else:
            X, g, h = block_spanning_table(seed, signal, width)
            if hessians is not None:
                h = hessians(X, h)
        table = make_table(X, np.arange(len(g)) % 2)
        got = fs.find_best_split(np.arange(len(g)), g, h, table, hp)
        assert got is not None
        best = enumerate_best_split(X, g, h, hp)
        if seed is None:
            assert got[0] == best[0] == 1
            assert got[1] == pytest.approx(best[1]) == pytest.approx(0.5)
            assert got[2] == pytest.approx(best[2])
        else:
            # integer gradients make every sum exact, so ties are real ones
            assert got == best

    @pytest.mark.parametrize("below", [False, True], ids=["H-is-2mcw", "H-below-2mcw"])
    @pytest.mark.parametrize(
        "h", [np.full(8, 0.5), np.array([0.5, 1.5, 1, 1, 1, 1, 0.25, 1.75])], ids=["even", "uneven"],
    )
    def test_min_child_weight_exit_boundary_matches_enumeration(self, h, below):
        # a node is searched only when H - mcw >= mcw; at H == 2 * mcw the one
        # admissible partition puts half of H on each side, and it separates g
        X = np.zeros((8, 3))
        X[:, 1] = [0, 0, 0, 0, 1, 1, 1, 1]
        X[:, 2] = [5, 1, 4, 2, 8, 6, 9, 7]
        g = np.array([-1.0] * 4 + [1.0] * 4)
        mcw = h.sum() / 2
        hp = fs.Hyperparams(min_child_weight=float(np.nextafter(mcw, np.inf) if below else mcw))
        got = fs.find_best_split(np.arange(8), g, h, make_table(X, np.arange(8) % 2), hp)
        assert got == enumerate_best_split(X, g, h, hp)
        assert (got is None) == below

    def test_one_row_node_has_no_split(self):
        table = separable_table(n=20, seed=4)
        g = np.where(table.labels == 0, -1.0, 1.0)
        h = np.ones(20)
        hp = fs.Hyperparams(min_child_weight=0.0)
        assert fs.find_best_split(np.arange(20), g, h, table, hp) is not None
        for i in range(20):
            assert fs.find_best_split([i], g, h, table, hp) is None

    def test_tie_breaks_to_lower_threshold(self):
        # symmetric gradients make the two boundaries score identically
        X = np.array([[0.0], [1.0], [2.0]])
        table = make_table(X, [0, 0, 1])
        g = np.array([-1.0, 0.0, 1.0])
        h = np.ones(3)
        hp = fs.Hyperparams(min_child_weight=1.0)
        got = fs.find_best_split(np.arange(3), g, h, table, hp)
        lo = fs.split_gain(-1.0, 1.0, 1.0, 2.0, hp)
        hi = fs.split_gain(-1.0, 2.0, 1.0, 1.0, hp)
        assert lo == pytest.approx(hi)
        assert got[1] == pytest.approx(0.5)

    def test_tie_breaks_to_lower_feature_index(self):
        X = np.zeros((4, 2))
        X[:, 0] = [0, 0, 1, 1]
        X[:, 1] = [0, 0, 1, 1]
        table = make_table(X, [0, 0, 1, 1])
        g = np.array([-1.0, -1, 1, 1])
        h = np.ones(4)
        got = fs.find_best_split(np.arange(4), g, h, table, fs.Hyperparams())
        assert got[0] == 0

    def test_min_child_weight_blocks(self):
        X = np.array([[0.0], [1.0]])
        table = make_table(X, [0, 1])
        g = np.array([-1.0, 1.0])
        h = np.full(2, 0.25)
        assert fs.find_best_split([0, 1], g, h, table, fs.Hyperparams(min_child_weight=1.0)) is None
        assert fs.find_best_split([0, 1], g, h, table, fs.Hyperparams(min_child_weight=0.25)) is not None

    def test_huge_gamma_blocks(self):
        X = np.array([[0.0], [1.0], [0.0], [1.0]])
        table = make_table(X, [0, 1, 0, 1])
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        h = np.ones(4)
        assert fs.find_best_split(np.arange(4), g, h, table, fs.Hyperparams(gamma=100.0)) is None

    def test_empty_rows_rejected(self):
        table = make_table(np.zeros((2, 1)), [0, 1])
        with pytest.raises(ValueError):
            fs.find_best_split([], np.zeros(2), np.ones(2), table, fs.Hyperparams())

    @pytest.mark.parametrize(
        "rows", [[0, 0, 2, 3], [-1, 0], [0.7, 2.2], [0, 9]],
        ids=["repeated", "negative", "fractional", "out-of-range"],
    )
    def test_rows_that_are_not_distinct_indices_rejected(self, rows):
        table = make_table(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])
        g = np.array([-1.0, -1, 1, 1])
        with pytest.raises(ValueError, match=r"distinct integer row indices in \[0, 4\)"):
            fs.find_best_split(rows, g, np.ones(4), table, fs.Hyperparams(min_child_weight=0.0))

    @pytest.mark.parametrize("g_length, h_length", [(3, 3), (5, 5), (4, 5)])
    def test_g_and_h_of_another_length_than_the_table_rejected(self, g_length, h_length):
        # Unchecked, a longer g and h have their extra entries ignored and a shorter one is indexed past its end.
        table = make_table(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])
        g = np.array([-1.0, -1, 1, 1, 1])[:g_length]
        message = rf"one entry per table row \(4\), got shapes \({g_length},\) and \({h_length},\)"
        with pytest.raises(ValueError, match=message):
            fs.find_best_split(np.arange(4), g, np.ones(h_length), table, fs.Hyperparams(min_child_weight=0.0))

    @pytest.mark.parametrize(
        "hp", [fs.Hyperparams(), fs.Hyperparams(reg_lambda=0.0, reg_alpha=0.5, min_child_weight=0.0)],
        ids=["default", "lambda0-alpha-mcw0"],
    )
    def test_g_and_h_unchanged(self, hp):
        X, g, h = block_spanning_table(3, 6)
        g0, h0 = g.copy(), h.copy()
        assert fs.find_best_split(np.arange(len(g)), g, h, make_table(X, np.arange(len(g)) % 2), hp) is not None
        assert np.array_equal(g, g0) and np.array_equal(h, h0)

    def test_boundary_next_to_nan_is_inadmissible(self):
        # A table refuses non-finite cells, but the search itself must never
        # split at a boundary whose comparison meets a NaN: here that boundary
        # would carry the largest gain.
        XT = np.array([[0.0, 1.0, 2.0, np.nan]])
        g, h = np.array([0.0, 0.0, 0.0, 4.0]), np.ones(4)
        hp = fs.Hyperparams(min_child_weight=0.0)
        best = gbt._best_split(XT, np.argsort(XT, axis=1, kind="stable"), g, h, 4.0, 4.0, hp)
        assert best == (0, 1.5, fs.split_gain(0.0, 2.0, 4.0, 2.0, hp), 1)

    @pytest.mark.parametrize("hp", [fs.Hyperparams(), fs.Hyperparams(reg_alpha=0.5, gamma=0.25)],
                             ids=["default", "alpha-gamma"])
    def test_one_block_peaks_below_six_and_a_half_block_arrays(self, hp):
        # A block of 13 features x 1,260 rows fills SPLIT_BLOCK_ELEMENTS; its
        # search holds four arrays of that size at once, 9 before the block's
        # temporaries were reused. Under alpha the gain terms still write over
        # their sums, since max(|G| - alpha, 0)^2 needs no sign.
        rng = np.random.default_rng(9)
        XT = rng.integers(0, 50, size=(13, 1260)).astype(np.float64)
        idx = np.argsort(XT, axis=1, kind="stable")
        g, h = rng.normal(size=1260), rng.random(1260) + 0.1
        assert gbt.SPLIT_BLOCK_ELEMENTS // 1260 >= 13
        tracemalloc.start()
        try:
            best = gbt._best_split(XT, idx, g, h, float(g.sum()), float(h.sum()), hp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best is not None
        assert peak < 6.5 * XT.nbytes


def extreme_weight_fit(rng):
    """A small integer table with weights of 1 or 1e6, and hyperparameters
    under which a node's hessian sum can be subnormal: learning rate 1,
    lambda = 0 and min_child_weight = 0."""
    n, m, K = rng.integers(6, 41), rng.integers(1, 5), rng.integers(2, 4)
    X = rng.integers(0, 5, (n, m)).astype(np.float64)
    y = rng.integers(0, K, n)
    weights = np.where(rng.random(n) < 0.5, 1.0, 1e6)
    hp = fs.Hyperparams(n_estimators=int(rng.integers(5, 40)), max_depth=int(rng.integers(1, 5)),
                        learning_rate=1.0, reg_lambda=0.0, min_child_weight=0.0)
    return make_table(X, y, n_classes=int(K), weights=weights), hp


NON_FINITE_TREE = (r"^round \d+, class \d+ \(c\d\), node \d+: leaf value (-?inf|nan), cover \S+;"
                   r" a model holds finite numbers only$")


class TestTrain:
    def test_zero_rounds(self):
        table = make_table(np.random.default_rng(0).normal(size=(10, 2)), [0, 1] * 5)
        ens = fs.train(table, fs.Hyperparams(n_estimators=0))
        assert len(ens.trees) == 0
        assert fs.predict_margin(ens, np.zeros(2)).tolist() == [0.5, 0.5]

    def test_tree_count_dense(self):
        table = make_table(np.random.default_rng(1).normal(size=(30, 3)), [0, 1, 2] * 10)
        ens = fs.train(table, fs.Hyperparams(n_estimators=5, max_depth=2))
        assert len(ens.trees) == 5 * 3

    def test_pure_leaf_value(self):
        # one feature splits the classes exactly; inspect the class-0 tree of
        # the first round, whose gradients come from uniform softmax (p = 1/2)
        X = np.repeat([[0.0], [1.0]], 5, axis=0)
        table = make_table(X, [0] * 5 + [1] * 5)
        hp = fs.Hyperparams(n_estimators=1, max_depth=1, reg_lambda=1.0)
        ens = fs.train(table, hp)
        tree = ens.class_trees(0)[0]
        assert tree.n_internal == 1
        # left leaf holds the five class-0 rows: g_i = 0.5 - 1, h_i = 0.25
        G, H = 5 * -0.5, 5 * 0.25
        expected = -G / (H + 1.0) * hp.learning_rate
        left = int(tree.left[0])
        assert tree.value[left] == pytest.approx(expected, rel=1e-12)

    def test_separable_reaches_perfect_accuracy(self):
        table = separable_table(n=100)
        ens = fs.train(table, fs.Hyperparams(n_estimators=10))
        pred = fs.predict_classes(ens, table.features)
        assert (pred == table.labels).mean() == 1.0

    def test_deterministic_bytes(self):
        table = separable_table(n=60, seed=9)
        hp = fs.Hyperparams(n_estimators=4, max_depth=3)
        assert fs.serialize(fs.train(table, hp)) == fs.serialize(fs.train(table, hp))

    def test_single_class_rejected(self):
        table = make_table(np.zeros((5, 1)), [0] * 5, n_classes=2)
        with pytest.raises(ValueError, match="2 classes"):
            fs.train(table, fs.Hyperparams(n_estimators=1))

    def test_one_class_of_three_rejected(self):
        table = make_table(np.arange(6.0)[:, None], [2] * 6, n_classes=3)
        with pytest.raises(ValueError, match=r"^training requires at least 2 classes present$"):
            fs.train(table, fs.Hyperparams(n_estimators=1))

    def test_classes_zero_and_two_of_three_train(self):
        # No row has class 1: the check counts classes present, not class codes.
        X = np.repeat([[0.0], [1.0]], 5, axis=0)
        table = make_table(X, [0] * 5 + [2] * 5, n_classes=3)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, max_depth=1))
        assert len(ens.trees) == 2 * 3
        assert fs.predict_classes(ens, X).tolist() == table.labels.tolist()

    def test_empty_table_rejected(self):
        table = make_table(np.zeros((0, 1)), np.zeros(0, dtype=int), n_classes=2)
        with pytest.raises(ValueError, match="empty"):
            fs.train(table, fs.Hyperparams(n_estimators=1))

    def test_cover_additivity(self):
        table = separable_table(n=80, seed=1)
        ens = fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=4))
        for tree in ens.trees:
            for i in range(tree.n_nodes):
                if tree.feature[i] >= 0:
                    parent = tree.cover[i]
                    child_sum = tree.cover[tree.left[i]] + tree.cover[tree.right[i]]
                    assert child_sum == pytest.approx(parent, rel=1e-9)

    def test_children_satisfy_min_child_weight(self):
        table = separable_table(n=80, seed=2)
        hp = fs.Hyperparams(n_estimators=2, max_depth=5, min_child_weight=1.0)
        ens = fs.train(table, hp)
        for tree in ens.trees:
            for i in range(tree.n_nodes):
                if tree.feature[i] >= 0:
                    assert tree.cover[tree.left[i]] >= hp.min_child_weight
                    assert tree.cover[tree.right[i]] >= hp.min_child_weight

    def test_first_round_splits_have_positive_gain(self):
        # recompute gradients at the uniform starting margins and check every
        # accepted split of round one against the public gain formula
        table = separable_table(n=70, seed=5)
        hp = fs.Hyperparams(n_estimators=1, max_depth=4)
        ens = fs.train(table, hp)
        n = table.n_rows
        margins = np.full((n, 2), hp.base_score)
        g, h = _grad_hess_matrix(margins, table.labels, table.sample_weights)
        for k, tree in enumerate(ens.trees):
            def check(node, rows):
                if tree.feature[node] < 0:
                    return
                f, thr = int(tree.feature[node]), tree.threshold[node]
                left = rows[table.features[rows, f] < thr]
                right = rows[table.features[rows, f] >= thr]
                gain = fs.split_gain(
                    g[left, k].sum(), h[left, k].sum(),
                    g[right, k].sum(), h[right, k].sum(), hp,
                )
                assert gain > 0
                check(int(tree.left[node]), left)
                check(int(tree.right[node]), right)

            check(0, np.arange(n))

    @pytest.mark.parametrize("min_child_weight", [0.0, 1.0])
    @pytest.mark.parametrize("on_thresholds", [False, True], ids=["fixture", "on-thresholds"])
    def test_fitted_values_equal_predict(self, on_thresholds, min_child_weight):
        # train adds the grower's fitted vector instead of re-routing X
        table = on_threshold_table() if on_thresholds else random_multiclass_table()
        X = table.features
        XT = np.ascontiguousarray(X.T)
        order = np.argsort(XT, axis=1, kind="stable")
        hp = fs.Hyperparams(max_depth=4, min_child_weight=min_child_weight)
        margins = np.full((table.n_rows, len(table.class_names)), hp.base_score)
        g, h = _grad_hess_matrix(margins, table.labels, table.sample_weights)
        on_threshold = False
        for k in range(len(table.class_names)):
            tree, fitted = gbt._grow_tree(XT, order, g[:, k], h[:, k], hp)
            assert fitted.tobytes() == tree.predict(X).tobytes()
            split = tree.feature >= 0
            on_threshold |= bool(np.isin(tree.threshold[split], X).any())
        assert on_threshold == on_thresholds

    @pytest.mark.parametrize("width", [5, 1], ids=["blocks", "one-feature-blocks"])
    @pytest.mark.parametrize("min_child_weight", [0.0, 1.0])
    def test_grown_splits_equal_find_best_split(self, min_child_weight, width):
        # each node's rows, filtered from the one presort of the table, must
        # split exactly as the node's own stable sort does; two classes and
        # unit weights make every gradient sum exact, so gain ties are real
        X, signal_g, _ = block_spanning_table(5, 4, width)
        table = make_table(X, (signal_g > 0).astype(int))
        hp = fs.Hyperparams(n_estimators=1, min_child_weight=min_child_weight)
        ens = fs.train(table, hp)
        margins = np.full((table.n_rows, 2), hp.base_score)
        g, h = _grad_hess_matrix(margins, table.labels, table.sample_weights)
        checked = 0
        for k, tree in enumerate(ens.trees):
            pending = [(0, np.arange(table.n_rows))]
            while pending:
                node, rows = pending.pop()
                f, thr = int(tree.feature[node]), float(tree.threshold[node])
                if f < 0:
                    continue
                assert fs.find_best_split(rows, g[:, k], h[:, k], table, hp)[:2] == (f, thr)
                checked += 1
                left = X[rows, f] < thr
                pending += [(int(tree.left[node]), rows[left]), (int(tree.right[node]), rows[~left])]
        assert checked >= 40

    @pytest.mark.parametrize("at", ["front", "middle", "end"])
    def test_constant_column_only_shifts_feature_indices(self, at):
        table = random_multiclass_table(n=120, m=6, K=3, seed=4)
        pos = {"front": 0, "middle": 3, "end": 6}[at]
        X = np.insert(table.features, pos, 2.5, axis=1)
        hp = fs.Hyperparams(n_estimators=3, max_depth=4)
        base = fs.train(table, hp)
        ens = fs.train(make_table(X, table.labels, n_classes=3), hp)
        assert len(ens.trees) == len(base.trees)
        for tree, ref in zip(ens.trees, base.trees):
            split = ref.feature >= 0
            assert split.any()
            shifted = np.where(split & (ref.feature >= pos), ref.feature + 1, ref.feature)
            assert tree.feature.tolist() == shifted.tolist()
            for name in ("threshold", "left", "right", "value", "cover"):
                assert getattr(tree, name).tobytes() == getattr(ref, name).tobytes()

    def test_all_constant_table_trains_single_leaf_trees(self):
        table = make_table(np.full((12, 3), -4.0), [0, 1, 2] * 4)
        ens = fs.train(table, fs.Hyperparams(n_estimators=3))
        assert len(ens.trees) == 9
        for tree in ens.trees:
            assert tree.n_nodes == 1 and tree.feature[0] == -1
            assert np.isfinite(tree.value).all() and np.isfinite(tree.cover).all()

    def test_midpoint_overflow_splits_between_the_values(self):
        # (lo + hi) / 2 overflows to inf here; the threshold must still part them
        lo, hi = 1.0e308, 1.7e308
        table = make_table(np.array([[lo], [lo], [hi], [hi]]), [0, 0, 1, 1])
        g = np.array([-1.0, -1, 1, 1])
        assert fs.find_best_split(np.arange(4), g, np.ones(4), table, fs.Hyperparams())[1] == hi
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, min_child_weight=0.0))
        assert fs.predict_classes(ens, table.features).tolist() == [0, 0, 1, 1]

    def test_min_child_weight_zero_isolates_one_row(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0], [9.0]])
        table = make_table(X, [0, 0, 0, 1, 1, 1, 0, 2])  # class 2 has one row
        ens = fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=4, min_child_weight=0.0))
        single_row_leaves = 0
        for tree in ens.trees:
            assert np.isfinite(tree.value).all() and np.isfinite(tree.cover).all()
            for i in np.nonzero(tree.feature >= 0)[0]:
                child_sum = tree.cover[tree.left[i]] + tree.cover[tree.right[i]]
                assert child_sum == pytest.approx(tree.cover[i], rel=1e-9)
            node_ids = replace(tree, value=np.arange(tree.n_nodes, dtype=np.float64))
            reached = np.bincount(node_ids.predict(X).astype(int), minlength=tree.n_nodes)
            single_row_leaves += int((reached == 1).sum())
        assert single_row_leaves > 0

    def test_non_finite_leaf_is_refused(self):
        # A leaf whose hessian sum is subnormal (1.7e-309) divides its gradient
        # sum to -inf; an ensemble holding it still predicts classes, so only
        # train can tell its caller.
        table, hp = extreme_weight_fit(np.random.default_rng(179))
        assert (table.n_rows, len(table.feature_names), len(table.class_names)) == (40, 4, 2)
        assert (hp.n_estimators, hp.max_depth) == (35, 2)
        message = r"^round 8, class 0 \(c0\), node 5: leaf value -inf, cover 1\.71867591282583e-309;"
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), pytest.raises(ValueError, match=message):
            fs.train(table, hp)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(179)  # a refused fit
    @example(23)  # one class drawn
    def test_extreme_weights_train_finite_trees_or_raise(self, seed):
        table, hp = extreme_weight_fit(np.random.default_rng(seed))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                ens = fs.train(table, hp)
            except ValueError as exc:
                one_class = table.labels.min() == table.labels.max()
                assert re.match("^training requires at least 2 classes present$" if one_class else NON_FINITE_TREE,
                                str(exc))
                return
        for tree in ens.trees:
            assert np.isfinite(tree.value).all() and np.isfinite(tree.cover).all()

    def test_gamma_monotone_pruning(self):
        table = separable_table(n=90, seed=8)
        sizes = []
        for gamma in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            hp = fs.Hyperparams(n_estimators=1, max_depth=6, gamma=gamma)
            ens = fs.train(table, hp)
            sizes.append(sum(t.n_internal for t in ens.trees))
        assert sizes == sorted(sizes, reverse=True) or all(
            a >= b for a, b in zip(sizes, sizes[1:])
        )


def stump_ensemble(feature=0, threshold=1.5, left=-1.0, right=1.0, base=0.5, K=2, M=2):
    """Hand-built single stump for class 0 plus flat zero leaves for the rest."""
    stump = Tree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, left, right]),
        cover=np.array([4.0, 2.0, 2.0]),
    )
    flat = Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([0.0]),
        cover=np.array([4.0]),
    )
    return TreeEnsemble(
        trees=[stump] + [flat] * (K - 1),
        n_classes=K,
        base_score=base,
        feature_names=[f"f{i}" for i in range(M)],
        class_names=[f"c{k}" for k in range(K)],
        hyperparams=fs.Hyperparams(n_estimators=1),
    )


class TestPredict:
    def test_zero_tree_margins(self):
        table = make_table(np.random.default_rng(3).normal(size=(6, 2)), [0, 1, 2] * 2)
        ens = fs.train(table, fs.Hyperparams(n_estimators=0))
        assert fs.predict_margin(ens, np.zeros(2)).tolist() == [0.5, 0.5, 0.5]
        assert fs.predict_class(ens, np.zeros(2)) == 0  # tie goes to class 0

    def test_stump_routing(self):
        ens = stump_ensemble(threshold=1.5, left=-1.0, right=1.0)
        below = fs.predict_margin(ens, np.array([1.0, 0.0]))
        above = fs.predict_margin(ens, np.array([2.0, 0.0]))
        assert below[0] == pytest.approx(0.5 - 1.0)
        assert above[0] == pytest.approx(0.5 + 1.0)

    def test_argmax(self):
        margins = np.array([0.1, 2.0, -1.0])
        ens = stump_ensemble(K=3)
        leaves = margins - ens.base_score
        for k, tree in enumerate(ens.trees):
            ens.trees[k] = Tree(
                feature=np.array([-1], dtype=np.int32),
                threshold=np.array([0.0]),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                value=np.array([leaves[k]]),
                cover=np.array([1.0]),
            )
        assert fs.predict_class(ens, np.zeros(2)) == 1

    def test_margin_shift_invariance(self):
        table = separable_table(n=40, seed=12)
        ens = fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=2))
        before = fs.predict_classes(ens, table.features)
        for tree in ens.trees:
            leaf = tree.feature < 0
            tree.value[leaf] += 7.5
        after = fs.predict_classes(ens, table.features)
        assert np.array_equal(before, after)

    def test_dimension_mismatch(self):
        ens = stump_ensemble()
        with pytest.raises(ValueError):
            fs.predict_margin(ens, np.zeros(5))


def _self_loop(stump, leaf, hp):
    # two nodes, the root its own left child: routing a row left never ends
    del stump[2]
    stump[0].update(left=0, right=1)


def _child_before_parent(stump, leaf, hp):
    stump[2].update(kind="split", feature=0, threshold=0.0, left=1, right=1)


# Each mutation of a serialized stump ensemble, and the error it must raise.
MALFORMED = {
    "self-loop": (_self_loop, "child index 0"),
    "child-before-parent": (_child_before_parent, "child index 1"),
    "shared-child": (lambda stump, leaf, hp: stump[0].update(right=1), "node 1 is the child of 2"),
    "unreachable-node": (lambda stump, leaf, hp: leaf.append(dict(leaf[0])), "node 1 is the child of 0"),
    "bool-feature": (lambda stump, leaf, hp: stump[0].update(feature=True), "feature must be a JSON int"),
    "bool-child": (lambda stump, leaf, hp: stump[0].update(right=True), "right must be a JSON int"),
    "fractional-rounds": (lambda stump, leaf, hp: hp.update(n_estimators=2.7),
                          "n_estimators must be a JSON int"),
    "string-depth": (lambda stump, leaf, hp: hp.update(max_depth="6"), "max_depth must be a JSON int"),
    "string-rate": (lambda stump, leaf, hp: hp.update(learning_rate="0.3"),
                    "learning_rate must be a JSON float"),
    # margins index classes by tree number modulo the class count
    "missing-tree": (lambda stump, leaf, hp: hp.update(n_estimators=2), "2 trees are not 2 rounds"),
}


# Any JSON value, to put in place of one of a model document's values.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@functools.cache
def model_document() -> bytes:
    """A 2-round, 3-class model's document."""
    return fs.serialize(fs.train(random_multiclass_table(n=40, m=3), fs.Hyperparams(n_estimators=2, max_depth=2)))


def draw_path(data, node) -> list:
    """A key path to a value inside ``node``: one key per level, stopping at a
    level at random, so the top-level fields are drawn as often as the nodes."""
    path = []
    while isinstance(node, (dict, list)) and node and (not path or data.draw(st.booleans())):
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return path


class TestSerialization:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_document_is_a_model_or_a_format_error(self, data):
        doc = json.loads(model_document())
        *head, key = draw_path(data, doc)
        parent = functools.reduce(lambda node, k: node[k], head, doc)
        mutation = data.draw(st.sampled_from(["replace", "drop", "cut"]))
        if mutation == "drop":
            del parent[key]
        elif mutation == "cut" and isinstance(parent[key], list):  # every list in the document has an entry
            parent[key] = parent[key][:data.draw(st.integers(0, len(parent[key]) - 1))]
        else:
            parent[key] = data.draw(JSON_VALUES)
        try:
            ens = fs.deserialize(json.dumps(doc).encode())
        except fs.ModelFormatError:
            return
        assert isinstance(ens, TreeEnsemble)

    @pytest.mark.parametrize("change", [
        ({"right": np.inf}, "tree 0 node 2: value is inf"),
        ({"left": -np.inf}, "tree 0 node 1: value is -inf"),
        ({"threshold": np.nan}, "tree 0 node 0: threshold is nan"),
    ])
    def test_non_finite_value_is_refused_when_written(self, tmp_path, change):
        stump, where = change  # the stump's non-finite value, and where the error names it
        ens = stump_ensemble(**stump)
        with pytest.raises(ValueError, match=f"^{where};"):
            fs.serialize(ens)
        with pytest.raises(ValueError, match=f"^{where};"):
            fs.save_model(ens, tmp_path / "model.json")
        assert not (tmp_path / "model.json").exists()

    def test_round_trip_identical_margins(self):
        table = separable_table(n=80, seed=21)
        ens = fs.train(table, fs.Hyperparams(n_estimators=5, max_depth=4))
        back = fs.deserialize(fs.serialize(ens))
        X = np.random.default_rng(0).normal(scale=3, size=(1000, 2))
        assert np.array_equal(fs.predict_margins(ens, X), fs.predict_margins(back, X))

    def test_unknown_version(self):
        ens = stump_ensemble()
        doc = json.loads(fs.serialize(ens))
        doc["format_version"] = 99
        with pytest.raises(fs.ModelFormatError, match="format_version"):
            fs.deserialize(json.dumps(doc).encode())

    def test_hand_written_stump_document(self):
        doc = {
            "format_version": 1,
            "hyperparams": {
                "n_estimators": 1, "learning_rate": 0.3, "max_depth": 6,
                "min_child_weight": 1.0, "gamma": 0.0, "lambda": 1.0,
                "alpha": 0.0, "objective": "multiclass_softmax",
                "base_score": 0.5, "seed": 0,
            },
            "classes": ["benign", "attack"],
            "features": ["duration", "bytes"],
            "base_score": 0.5,
            "trees": [
                {
                    "nodes": [
                        {"kind": "split", "feature": 1, "threshold": 10.0,
                         "left": 1, "right": 2, "value": None, "cover": 8.0},
                        {"kind": "leaf", "feature": None, "threshold": None,
                         "left": None, "right": None, "value": -0.4, "cover": 5.0},
                        {"kind": "leaf", "feature": None, "threshold": None,
                         "left": None, "right": None, "value": 0.6, "cover": 3.0},
                    ]
                },
                {
                    "nodes": [
                        {"kind": "leaf", "feature": None, "threshold": None,
                         "left": None, "right": None, "value": 0.0, "cover": 8.0}
                    ]
                },
            ],
        }
        ens = fs.deserialize(json.dumps(doc).encode())
        assert fs.predict_margin(ens, np.array([0.0, 5.0])).tolist() == [0.5 - 0.4, 0.5]
        assert fs.predict_margin(ens, np.array([0.0, 11.0])).tolist() == [0.5 + 0.6, 0.5]

    def test_nan_threshold_rejected(self):
        ens = stump_ensemble()
        text = fs.serialize(ens).decode().replace("1.5", "NaN")
        with pytest.raises(fs.ModelFormatError, match="[Nn]a[Nn]"):
            fs.deserialize(text.encode())

    def test_malformed_document(self):
        with pytest.raises(fs.ModelFormatError):
            fs.deserialize(b"{not json")
        with pytest.raises(fs.ModelFormatError):
            fs.deserialize(json.dumps({"format_version": 1}).encode())

    def test_feature_index_out_of_range(self):
        ens = stump_ensemble()
        doc = json.loads(fs.serialize(ens))
        doc["trees"][0]["nodes"][0]["feature"] = 7
        with pytest.raises(fs.ModelFormatError, match="out of range"):
            fs.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("mutate, message", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_node_graph_or_hyperparams_rejected(self, mutate, message):
        doc = json.loads(fs.serialize(stump_ensemble()))  # trees: a stump, then one leaf
        mutate(doc["trees"][0]["nodes"], doc["trees"][1]["nodes"], doc["hyperparams"])
        with pytest.raises(fs.ModelFormatError, match=message):
            fs.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("field, written", [("threshold", "1.5"), ("value", "-1.0")])
    def test_overflowing_number_rejected(self, field, written):
        # json reads 1e999 as inf without passing it to parse_constant
        text = fs.serialize(stump_ensemble()).decode()
        assert f'"{field}": {written}' in text
        text = text.replace(f'"{field}": {written}', f'"{field}": 1e999', 1)
        with pytest.raises(fs.ModelFormatError, match=f"{field} must be finite"):
            fs.deserialize(text.encode())

    @pytest.mark.parametrize("field", ["base_score", "threshold", "cover", "learning_rate"])
    def test_integer_literal_past_float_range_rejected(self, field):
        # json reads a 400-digit integer as an int, which float() cannot hold
        doc = json.loads(fs.serialize(stump_ensemble()))
        holder = {"base_score": doc, "learning_rate": doc["hyperparams"]}.get(field, doc["trees"][0]["nodes"][0])
        holder[field] = 10**400
        with pytest.raises(fs.ModelFormatError, match=f"{field} must be finite"):
            fs.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("data", [b'{"format_version": ' + b"9" * 5000 + b"}", b'{"format_version": 1\xff}'],
                             ids=["past-the-int-digit-limit", "not-utf-8"])
    def test_undecodable_document_rejected(self, data):
        with pytest.raises(fs.ModelFormatError, match="malformed model document"):
            fs.deserialize(data)

    @pytest.mark.parametrize("classes", [[], ["only"], ["a", "b", "c"]])
    def test_tree_count_must_match_rounds_and_classes(self, classes):
        doc = json.loads(fs.serialize(stump_ensemble()))  # 1 round, 2 classes
        doc["classes"] = classes
        with pytest.raises(fs.ModelFormatError, match="trees are not 1 rounds"):
            fs.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("key, names, message", [
        ("classes", "cc", "classes must be a JSON list"),
        ("classes", [0, 1], "classes entry must be a JSON str"),
        ("features", [None, 1.5], "features entry must be a JSON str"),
        ("classes", ["c0", "c0"], "classes must be distinct"),
        ("features", ["f0", "f0"], "features must be distinct"),
    ], ids=["string-classes", "number-classes", "null-feature", "duplicate-classes", "duplicate-features"])
    def test_name_lists_must_be_distinct_strings(self, key, names, message):
        doc = json.loads(fs.serialize(stump_ensemble()))  # 2 classes, 2 features
        doc[key] = names
        with pytest.raises(fs.ModelFormatError, match=message):
            fs.deserialize(json.dumps(doc).encode())

    def test_trees_must_be_an_array(self):
        doc = json.loads(fs.serialize(stump_ensemble()))
        doc["trees"] = 5
        with pytest.raises(fs.ModelFormatError, match="trees must be an array"):
            fs.deserialize(json.dumps(doc).encode())

    def test_integer_json_number_reads_as_float_hyperparam(self):
        doc = json.loads(fs.serialize(stump_ensemble()))
        doc["hyperparams"]["lambda"] = 2
        assert fs.deserialize(json.dumps(doc).encode()).hyperparams.reg_lambda == 2.0

    def test_file_round_trip(self, tmp_path):
        table = separable_table(n=40, seed=30)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2))
        path = tmp_path / "model.json"
        fs.save_model(ens, path)
        back = fs.load_model(path)
        assert fs.serialize(back) == fs.serialize(ens)
