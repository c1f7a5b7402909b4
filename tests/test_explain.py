"""Tests for conditional expectations, Shapley attributions, rankings and exports."""

import csv
import math

import numpy as np
import pytest

import flowshap as fs
from flowshap import explain
from flowshap.explain import write_shap_csv
from flowshap.gbt import Tree, TreeEnsemble

from conftest import make_table, random_multiclass_table

from test_gbt import stump_ensemble


def leaf_tree(value, cover=4.0):
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([0.0]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([float(value)]),
        cover=np.array([cover]),
    )


class TestConditionalExpectation:
    def test_full_subset_is_plain_routing(self, small_ensemble):
        ens, table = small_ensemble
        all_features = range(len(ens.feature_names))
        for tree in ens.trees[:4]:
            for x in table.features[:10]:
                assert fs.conditional_expectation(tree, x, all_features) == pytest.approx(
                    float(tree.predict(x[None, :])[0])
                )

    def test_empty_subset_on_stump(self):
        ens = stump_ensemble(left=1.0, right=3.0)
        stump = ens.trees[0]
        assert fs.conditional_expectation(stump, np.zeros(2), set()) == pytest.approx(2.0)

    def test_empty_subset_equals_cover_weighted_leaf_mean(self, small_ensemble):
        ens, table = small_ensemble
        for tree in ens.trees:
            # independent oracle: enumerate leaves with their path-from-root
            # cover, then take the weighted mean
            leaves = []

            def collect(i):
                if tree.feature[i] < 0:
                    leaves.append((tree.cover[i], tree.value[i]))
                else:
                    collect(int(tree.left[i]))
                    collect(int(tree.right[i]))

            collect(0)
            weighted = sum(c * v for c, v in leaves) / sum(c for c, _ in leaves)
            got = fs.conditional_expectation(tree, table.features[0], set())
            assert got == pytest.approx(weighted, rel=1e-12)

    def test_zero_cover_rejected(self):
        tree = Tree(
            feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, 1.0, 3.0]),
            cover=np.array([0.0, 0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="zero cover"):
            fs.conditional_expectation(tree, np.zeros(1), set())


class TestBruteForce:
    def test_constant_tree(self):
        ens = TreeEnsemble(
            trees=[leaf_tree(0.7), leaf_tree(-0.3)],
            n_classes=2,
            base_score=0.5,
            feature_names=["f0", "f1", "f2"],
            class_names=["c0", "c1"],
            hyperparams=fs.Hyperparams(n_estimators=1),
        )
        phi, phi0 = fs.brute_force_shapley(ens, np.zeros(3), 0)
        assert phi.tolist() == [0.0, 0.0, 0.0]
        assert phi0 == pytest.approx(0.5 + 0.7)

    def test_stump_hand_values(self):
        ens = stump_ensemble(feature=0, threshold=1.5, left=1.0, right=3.0, M=3)
        x = np.array([0.0, 9.0, 9.0])  # routed left
        phi, phi0 = fs.brute_force_shapley(ens, x, 0)
        assert phi0 == pytest.approx(2.0 + 0.5)
        assert phi[0] == pytest.approx(-1.0)
        assert phi[1] == pytest.approx(0.0)
        assert phi[2] == pytest.approx(0.0)

    def test_dummy_feature_gets_zero(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 4))
        X[:, 3] = 1.0  # constant, never split on
        y = (X[:, 0] > 0).astype(int)
        table = make_table(X, y)
        ens = fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=2))
        assert all(3 not in t.feature for t in ens.trees)
        for s in range(5):
            for k in range(2):
                phi, _ = fs.brute_force_shapley(ens, X[s], k)
                assert phi[3] == 0.0

    def test_refuses_many_features(self):
        table = make_table(np.random.default_rng(0).normal(size=(10, 21)), [0, 1] * 5)
        ens = fs.train(table, fs.Hyperparams(n_estimators=0))
        with pytest.raises(ValueError, match="20"):
            fs.brute_force_shapley(ens, np.zeros(21), 0)


def zero_cover_tree():
    return Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, 1.0, 3.0]),
        cover=np.array([0.0, 0.0, 0.0]),
    )


def unique_path_features(tree):
    """Unique-feature count of every root-to-leaf path."""
    counts = []
    stack = [(0, frozenset())]
    while stack:
        i, seen = stack.pop()
        if tree.feature[i] < 0:
            counts.append(len(seen))
            continue
        seen = seen | {int(tree.feature[i])}
        stack.append((int(tree.left[i]), seen))
        stack.append((int(tree.right[i]), seen))
    return counts


def assert_matches_oracle(ens, table, rows):
    shap = fs.tree_shap(ens, table)
    for s in rows:
        for k in range(ens.n_classes):
            phi, phi0 = fs.brute_force_shapley(ens, table.features[s], k)
            assert np.abs(shap.values[s, k] - phi).max() <= 1e-8
            assert abs(shap.base_values[k] - phi0) <= 1e-8
    return shap


class TestTreeShap:
    def test_zero_tree_ensemble(self):
        table = random_multiclass_table(n=8, m=3, K=3, seed=2)
        ens = fs.train(table, fs.Hyperparams(n_estimators=0))
        shap = fs.tree_shap(ens, table)
        assert np.all(shap.values == 0.0)
        assert shap.base_values.tolist() == [0.5, 0.5, 0.5]

    def test_matches_brute_force(self, small_ensemble):
        ens, table = small_ensemble
        shap = fs.tree_shap(ens, table)
        for s in range(12):
            for k in range(ens.n_classes):
                phi, phi0 = fs.brute_force_shapley(ens, table.features[s], k)
                assert np.abs(shap.values[s, k] - phi).max() <= 1e-8
                assert abs(shap.base_values[k] - phi0) <= 1e-8

    def test_additivity(self, small_ensemble):
        ens, table = small_ensemble
        shap = fs.tree_shap(ens, table)
        margins = fs.predict_margins(ens, table.features)
        recon = shap.base_values[None, :] + shap.values.sum(axis=2)
        assert np.abs(recon - margins).max() <= 1e-6

    def test_repeated_feature_on_path(self):
        # deep trees over two features force the same feature to split
        # several times along one path
        rng = np.random.default_rng(13)
        X = rng.normal(size=(120, 2))
        y = ((np.abs(X[:, 0]) > 1.0) ^ (X[:, 1] > 0)).astype(int)
        table = make_table(X, y)
        ens = fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=5))
        repeats = 0
        for tree in ens.trees:
            stack = [(0, ())]
            while stack:
                i, seen = stack.pop()
                if tree.feature[i] < 0:
                    continue
                f = int(tree.feature[i])
                repeats += f in seen
                stack.append((int(tree.left[i]), seen + (f,)))
                stack.append((int(tree.right[i]), seen + (f,)))
        assert repeats > 0
        shap = fs.tree_shap(ens, table)
        for s in range(0, 120, 10):
            for k in range(2):
                phi, phi0 = fs.brute_force_shapley(ens, table.features[s], k)
                assert np.abs(shap.values[s, k] - phi).max() <= 1e-8
                assert abs(shap.base_values[k] - phi0) <= 1e-8

    def test_matches_brute_force_at_depth_six(self):
        # the paper's depth: leaves carry 4-6 unique path features, and paths
        # of unequal length are padded within one tree
        rng = np.random.default_rng(21)
        table = make_table(rng.normal(size=(300, 8)), rng.integers(0, 2, size=300), n_classes=2)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, max_depth=6, min_child_weight=0.0))
        counts = [unique_path_features(tree) for tree in ens.trees]
        assert max(max(c) for c in counts) >= 4
        assert any(min(c) < max(c) for c in counts)
        assert_matches_oracle(ens, table, range(3))

    def test_rows_on_split_thresholds(self):
        # every cell sits exactly on a threshold its feature is split at, so
        # each split sees x == threshold and must route right
        table = random_multiclass_table(n=120, m=4, K=3, seed=5)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, max_depth=4))
        cuts = {f: sorted({float(t.threshold[i]) for t in ens.trees
                           for i in np.nonzero(t.feature == f)[0]}) for f in range(4)}
        assert all(cuts.values())
        rng = np.random.default_rng(0)
        X = np.array([[rng.choice(cuts[f]) for f in range(4)] for _ in range(8)])
        on_cuts = make_table(X, np.arange(8) % 3, n_classes=3)
        shap = assert_matches_oracle(ens, on_cuts, range(8))
        margins = fs.predict_margins(ens, on_cuts.features)
        recon = shap.base_values[None, :] + shap.values.sum(axis=2)
        assert np.abs(recon - margins).max() <= 1e-6

    def test_zero_cover_rejected(self):
        ens = TreeEnsemble(
            trees=[zero_cover_tree(), leaf_tree(0.0)],
            n_classes=2,
            base_score=0.5,
            feature_names=["f0"],
            class_names=["c0", "c1"],
            hyperparams=fs.Hyperparams(n_estimators=1),
        )
        with pytest.raises(ValueError, match="zero cover"):
            fs.tree_shap(ens, make_table(np.zeros((2, 1)), [0, 1]))

    def test_linearity_over_rounds(self):
        table = random_multiclass_table(n=50, m=4, K=2, seed=9)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, max_depth=3))
        K = ens.n_classes

        def subensemble(trees):
            return TreeEnsemble(
                trees=trees, n_classes=K, base_score=ens.base_score,
                feature_names=ens.feature_names, class_names=ens.class_names,
                hyperparams=ens.hyperparams,
            )

        full = fs.tree_shap(ens, table)
        first = fs.tree_shap(subensemble(ens.trees[:K]), table)
        second = fs.tree_shap(subensemble(ens.trees[K:]), table)
        assert np.abs(full.values - (first.values + second.values)).max() <= 1e-9
        # base values each carry one copy of the base score
        combined = first.base_values + second.base_values - ens.base_score
        assert np.abs(full.base_values - combined).max() <= 1e-9

    def test_dimension_mismatch(self, small_ensemble):
        ens, table = small_ensemble
        other = make_table(table.features[:, :3], table.labels, n_classes=3)
        with pytest.raises(ValueError, match="features"):
            fs.tree_shap(ens, other)

    def test_base_values_are_root_expectations(self, small_ensemble):
        ens, table = small_ensemble
        expected = np.full(ens.n_classes, ens.base_score)
        for idx, tree in enumerate(ens.trees):
            expected[idx % ens.n_classes] += fs.conditional_expectation(
                tree, np.zeros(len(ens.feature_names)), []
            )
        shap = fs.tree_shap(ens, table)
        assert np.abs(shap.base_values - expected).max() <= 1e-12

    def test_each_row_is_attributed_alone(self, monkeypatch):
        # a row's attributions are the same bits whether it is explained alone,
        # in a slice, in the full call, or in row blocks of one row each
        ens, table = depth_six_ensemble()
        full = fs.tree_shap(ens, table)
        for block_elements in [explain.BLOCK_ELEMENTS, 1]:
            monkeypatch.setattr(explain, "BLOCK_ELEMENTS", block_elements)
            assert np.array_equal(fs.tree_shap(ens, table).values, full.values)
            for rows in [[0], [7], [150], [299], slice(0, 2), slice(40, 173), slice(101, 300)]:
                part = fs.tree_shap(ens, make_table(table.features[rows], table.labels[rows], 4))
                assert np.array_equal(part.values, full.values[rows])
                assert np.array_equal(part.base_values, full.base_values)

    def test_equals_the_matrix_product_formulation(self):
        # summing in a fixed order only reorders the float additions of the
        # scatter-matrix products it replaced
        ens, table = depth_six_ensemble()
        shap = fs.tree_shap(ens, table)
        values, base = matrix_product_tree_shap(ens, table)
        assert np.abs(shap.values - values).max() <= 1e-12
        assert np.abs(shap.base_values - base).max() <= 1e-12


def depth_six_ensemble():
    """A 4-class, 4-round model on 300 rows whose paths reach 6 unique features."""
    table = random_multiclass_table(n=300, m=8, K=4, seed=3)
    hp = fs.Hyperparams(n_estimators=4, max_depth=6, min_child_weight=0.0)
    return fs.train(table, hp), table


def matrix_product_tree_shap(ens, table):
    """``tree_shap`` with its sums as matrix products: each leaf's path game
    weighted by ``@``, and every tree's attributions scaled and summed into
    features by one dense (leaves * path length, features) scatter matrix."""
    K, M = ens.n_classes, len(ens.feature_names)
    values = np.zeros((table.n_rows, K, M))
    base = np.full(K, ens.base_score)
    for t_idx, tree in enumerate(ens.trees):
        leaf_value, feat, lo, hi, z = explain._leaf_paths(tree)
        base[t_idx % K] += leaf_value @ z.prod(axis=1)
        L, D = feat.shape
        x = table.features[:, feat]
        one = (lo <= x) & (x < hi)
        weights = np.array([math.factorial(k) * math.factorial(D - k - 1) / math.factorial(D)
                            for k in range(D)])
        poly = np.zeros(one.shape[:2] + (D + 1,))
        poly[..., 0] = 1.0
        for j in range(D):
            poly[..., 1:] = poly[..., 1:] * z[:, j, None] + poly[..., :-1] * one[..., j, None]
            poly[..., 0] *= z[:, j]
        absent = -(poly[..., :D] @ weights)
        q = np.broadcast_to(poly[..., D:], one.shape)
        total = weights[D - 1] * q
        for k in range(D - 1, 0, -1):
            q = poly[..., k, None] - z * q
            total += weights[k - 1] * q
        phi = np.where(one, (1.0 - z) * total, absent[..., None])
        scatter = np.zeros((L * D, M))
        scatter[np.arange(L * D), feat.ravel()] = np.repeat(leaf_value, D)
        values[:, t_idx % K] += phi.reshape(phi.shape[0], -1) @ scatter
    return values, base


def matrix(values, names):
    values = np.asarray(values, dtype=np.float64)
    return fs.ShapMatrix(values=values, base_values=np.zeros(values.shape[1]), feature_names=names)


class TestRankings:
    def test_all_zero_lexicographic(self):
        shap = matrix(np.zeros((3, 2, 3)), ["b", "a", "c"])
        ranking = fs.global_importance(shap)
        assert [e[0] for e in ranking.entries] == ["a", "b", "c"]
        assert all(score == 0.0 for _, score in ranking.entries)

    def test_single_carrier_ranks_first(self):
        values = np.zeros((4, 2, 3))
        values[:, :, 1] = 2.0
        ranking = fs.global_importance(matrix(values, ["a", "b", "c"]))
        assert ranking.entries[0] == ("b", pytest.approx(4.0))

    def test_matches_independent_aggregate(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(20, 3, 5))
        names = [f"f{i}" for i in range(5)]
        ranking = fs.global_importance(matrix(values, names))
        # independent recomputation with explicit loops
        expected = {}
        for i, name in enumerate(names):
            total = 0.0
            for k in range(3):
                total += sum(abs(values[s, k, i]) for s in range(20)) / 20
            expected[name] = total
        for name, score in ranking.entries:
            assert score == pytest.approx(expected[name], rel=1e-12)
        ordered = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
        assert [e[0] for e in ranking.entries] == [name for name, _ in ordered]

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_global_score_is_the_sum_of_the_class_scores(self, m):
        table = random_multiclass_table(m=m)
        shap = fs.tree_shap(fs.train(table, fs.Hyperparams(n_estimators=3, max_depth=3)), table)
        class_scores = [dict(fs.per_class_importance(shap, k).entries) for k in range(shap.values.shape[1])]
        for name, score in fs.global_importance(shap).entries:
            total = 0.0
            for scores in class_scores:
                total += scores[name]
            assert score == total, name

    @pytest.mark.parametrize("shape", [(1, 2, 2), (9, 3, 2), (17, 6, 8), (100, 3, 3), (1000, 6, 77)])
    def test_global_scores_equal_the_whole_array_mean(self, shape):
        values = np.random.default_rng(sum(shape)).normal(size=shape)
        names = [f"f{i}" for i in range(shape[2])]
        scores = dict(fs.global_importance(matrix(values, names)).entries)
        assert [scores[name] for name in names] == np.abs(values).mean(axis=0).sum(axis=0).tolist()

    def test_per_class_zero_attribution(self):
        values = np.zeros((4, 2, 3))
        values[:, 0, :] = 1.0
        ranking = fs.per_class_importance(matrix(values, ["a", "b", "c"]), 1)
        assert all(score == 0.0 for _, score in ranking.entries)

    def test_per_class_single_sample(self):
        values = np.zeros((1, 2, 3))
        values[0, 1] = [-0.5, 2.0, 1.0]
        ranking = fs.per_class_importance(matrix(values, ["a", "b", "c"]), 1)
        assert ranking.entries == [
            ("b", pytest.approx(2.0)),
            ("c", pytest.approx(1.0)),
            ("a", pytest.approx(0.5)),
        ]

    def test_per_class_split_feature_ranks_first(self):
        # class-1 trees split only on feature 2
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 4))
        y = (X[:, 2] > 0).astype(int)
        table = make_table(X, y)
        ens = fs.train(table, fs.Hyperparams(n_estimators=2, max_depth=1))
        shap = fs.tree_shap(ens, table)
        ranking = fs.per_class_importance(shap, 1)
        assert ranking.entries[0][0] == "f2"

    def test_invalid_class_index(self):
        with pytest.raises(ValueError):
            fs.per_class_importance(matrix(np.zeros((2, 2, 2)), ["a", "b"]), 5)

    def test_ranking_deterministic(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(10, 2, 4))
        names = ["d", "c", "b", "a"]
        a = fs.global_importance(matrix(values.copy(), names))
        b = fs.global_importance(matrix(values.copy(), names))
        assert a.entries == b.entries


class TestShapCsv:
    def test_export_equals_csv_writer_reference(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(3, 2, 4)) * 10.0 ** rng.integers(-300, 300, size=(3, 2, 4))
        values[0, 0, :3] = [-0.0, 5e-324, 1e16]
        names = ["a,b", 'q"x', "plain", " line\r\nbreak"]
        classes = ["Benign", "Data,Exfil"]
        path = tmp_path / "shap.csv"
        write_shap_csv(matrix(values, names), classes, path)
        with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "class", "feature", "phi"])
            for s in range(3):
                for k in range(2):
                    for i in range(4):
                        writer.writerow([s, classes[k], names[i], repr(float(values[s, k, i]))])
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
