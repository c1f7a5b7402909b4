"""Exact Shapley attributions of per-class ensemble margins.

Two independent routes compute the same quantity. ``tree_shap`` splits each
tree once into root-to-leaf paths (the path formulation of GPUTreeShap). On a
path, unique feature i has a zero fraction z_i (the cover share of the leaf's
branch at its splits) and a one fraction o_i (1 iff the sample meets all of
its conditions); a subset S then gets value * prod_{i in S} o_i * prod_{i not
in S} z_i, a product game with closed-form Shapley values. Paths are padded to
one length with null players, so all leaves of a tree and a block of rows are
computed in one set of array operations.
``brute_force_shapley`` enumerates all feature subsets of the classic
attribution formula; it exists purely as an oracle for the fast path and
refuses more than 20 features.

Both routes share the same value function: a feature subset S evaluates a
tree by following the sample's branch for conditioned features and averaging
children by cover for everything else.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .gbt import Tree, TreeEnsemble
from .ingest import FlowTable


@dataclass
class ShapMatrix:
    """Attributions per (sample, class, feature) plus per-class base values.

    For every sample and class, base + sum of attributions reproduces the
    ensemble margin.
    """

    values: np.ndarray       # (n_samples, n_classes, n_features)
    base_values: np.ndarray  # (n_classes,)
    feature_names: list[str]


@dataclass
class ImportanceRanking:
    """Features ordered by non-increasing score; ties break lexicographically."""

    entries: list[tuple[str, float]]
    scope: str  # "global" or "class:<name>"


def _cond_exp(tree: Tree, x: np.ndarray, in_subset, node: int) -> float:
    if tree.feature[node] < 0:
        return float(tree.value[node])
    f = int(tree.feature[node])
    l, r = int(tree.left[node]), int(tree.right[node])
    if in_subset(f):
        child = l if x[f] < tree.threshold[node] else r
        return _cond_exp(tree, x, in_subset, child)
    total = float(tree.cover[node])
    if total == 0.0:
        raise ValueError("zero cover at an averaged node")
    return (
        tree.cover[l] * _cond_exp(tree, x, in_subset, l)
        + tree.cover[r] * _cond_exp(tree, x, in_subset, r)
    ) / total


def conditional_expectation(tree: Tree, x, feature_subset) -> float:
    """Tree output with features in the subset fixed to x, others cover-averaged."""
    x = np.asarray(x, dtype=np.float64)
    subset = frozenset(int(i) for i in feature_subset)
    return _cond_exp(tree, x, subset.__contains__, 0)


def _cond_exp_mask(tree: Tree, x: np.ndarray, mask: int) -> float:
    return _cond_exp(tree, x, lambda f: (mask >> f) & 1, 0)


def _tree_feature_mask(tree: Tree) -> int:
    mask = 0
    for f in tree.feature:
        if f >= 0:
            mask |= 1 << int(f)
    return mask


def brute_force_shapley(ens: TreeEnsemble, x, class_k: int):
    """Exhaustive-subset Shapley values for one sample and class.

    Returns (phi, phi0) where phi has one entry per feature. Cost grows as
    2^n_features; callable only for 20 features or fewer.
    """
    M = len(ens.feature_names)
    if M > 20:
        raise ValueError(f"brute force refuses {M} features (limit 20)")
    if not 0 <= class_k < ens.n_classes:
        raise ValueError("class index out of range")
    x = np.asarray(x, dtype=np.float64)
    n_sub = 1 << M
    masks = np.arange(n_sub, dtype=np.int64)

    # v[S] = summed conditional expectation of the class trees under subset S.
    # Each tree depends only on S intersected with its own feature set, so we
    # evaluate 2^|D| subsets per tree and gather.
    v = np.zeros(n_sub, dtype=np.float64)
    for tree in ens.class_trees(class_k):
        dmask = _tree_feature_mask(tree)
        if dmask == 0:
            v += _cond_exp_mask(tree, x, 0)
            continue
        ce = np.zeros(n_sub, dtype=np.float64)
        sub = dmask
        while True:
            ce[sub] = _cond_exp_mask(tree, x, sub)
            if sub == 0:
                break
            sub = (sub - 1) & dmask
        v += ce[masks & dmask]

    # phi_i = sum over subsets S without i of
    #         |S|! (M-|S|-1)! / M! * (v[S+i] - v[S])
    weights = np.array(
        [
            math.factorial(s) * math.factorial(M - s - 1) / math.factorial(M)
            for s in range(M)
        ]
    )
    sizes = np.bitwise_count(masks)
    phi = np.empty(M, dtype=np.float64)
    for i in range(M):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        phi[i] = float(np.sum(weights[sizes[without]] * (v[without | bit] - v[without])))
    phi0 = float(v[0]) + ens.base_score
    return phi, phi0


# Row blocks are sized so that rows x leaves x path length stays below this
# many elements; it bounds each temporary of the path game to a few MB.
BLOCK_ELEMENTS = 1 << 18


def _leaf_paths(tree: Tree):
    """Every leaf's value and, per unique feature on its path, the feature
    index, the interval [lo, hi) its conditions admit, and its zero fraction
    (the product of child-cover / parent-cover ratios at its splits).

    Arrays are (leaves, D) with D the longest path's unique-feature count;
    shorter paths are padded with null players (interval (-inf, inf), z = 1).
    """
    leaves = []
    stack = [(0, {})]
    while stack:
        node, conds = stack.pop()
        f = int(tree.feature[node])
        if f < 0:
            leaves.append((float(tree.value[node]), conds))
            continue
        total = float(tree.cover[node])
        if total == 0.0:
            raise ValueError("zero cover at an averaged node")
        lo, hi, z = conds.get(f, (-np.inf, np.inf, 1.0))
        thr = float(tree.threshold[node])
        l, r = int(tree.left[node]), int(tree.right[node])
        stack.append((r, {**conds, f: (max(lo, thr), hi, z * (float(tree.cover[r]) / total))}))
        stack.append((l, {**conds, f: (lo, min(hi, thr), z * (float(tree.cover[l]) / total))}))
    D = max(1, *(len(conds) for _, conds in leaves))
    feat = np.zeros((len(leaves), D), dtype=np.int64)
    lo = np.full((len(leaves), D), -np.inf)
    hi = np.full((len(leaves), D), np.inf)
    z = np.ones((len(leaves), D))
    for i, (_, conds) in enumerate(leaves):
        for d, (f, bounds) in enumerate(conds.items()):
            feat[i, d] = f
            lo[i, d], hi[i, d], z[i, d] = bounds
    return np.array([v for v, _ in leaves]), feat, lo, hi, z


def _path_phi(X, feat, lo, hi, z) -> np.ndarray:
    """Shapley value of every path feature in each leaf's product game, before
    scaling by the leaf value: (o_i - z_i) * sum_k k!(D-k-1)!/D! * c_k, with c_k
    the t^k coefficient of prod_{j != i} (o_j t + z_j). Returns (rows, leaves, D)."""
    x = X[:, feat]
    one = (lo <= x) & (x < hi)
    D = feat.shape[1]
    weights = np.array([math.factorial(k) * math.factorial(D - k - 1) / math.factorial(D)
                        for k in range(D)])
    poly = np.zeros(one.shape[:2] + (D + 1,))
    poly[..., 0] = 1.0
    for j in range(D):
        poly[..., 1:] = poly[..., 1:] * z[:, j, None] + poly[..., :-1] * one[..., j, None]
        poly[..., 0] *= z[:, j]
    # o_i = 0: the product carries the factor z_i, which (o_i - z_i) = -z_i
    # multiplies back, so no division is needed.
    absent = -(poly[..., :D] @ weights)
    # o_i = 1: divide the product by (t + z_i), top coefficient first.
    q = np.broadcast_to(poly[..., D:], one.shape)
    total = weights[D - 1] * q
    for k in range(D - 1, 0, -1):
        q = poly[..., k, None] - z * q
        total += weights[k - 1] * q
    return np.where(one, (1.0 - z) * total, absent[..., None])


def tree_shap(ens: TreeEnsemble, table: FlowTable) -> ShapMatrix:
    """Exact attributions of every per-class margin over all table rows."""
    if list(table.feature_names) != list(ens.feature_names):
        raise ValueError("table features do not match the model")
    n = table.n_rows
    K = ens.n_classes
    M = len(ens.feature_names)
    values = np.zeros((n, K, M), dtype=np.float64)
    base = np.full(K, ens.base_score, dtype=np.float64)
    X = table.features
    for t_idx, tree in enumerate(ens.trees):
        leaf_value, feat, lo, hi, z = _leaf_paths(tree)
        base[t_idx % K] += leaf_value @ z.prod(axis=1)
        L, D = feat.shape
        # Scales each (leaf, path slot) attribution and sums it into its feature.
        scatter = np.zeros((L * D, M))
        scatter[np.arange(L * D), feat.ravel()] = np.repeat(leaf_value, D)
        step = max(1, BLOCK_ELEMENTS // (L * D))
        for start in range(0, n, step):
            phi = _path_phi(X[start:start + step], feat, lo, hi, z)
            values[start:start + step, t_idx % K] += phi.reshape(phi.shape[0], -1) @ scatter
    return ShapMatrix(values=values, base_values=base, feature_names=list(ens.feature_names))


def _ranked(names, scores, scope) -> ImportanceRanking:
    order = sorted(zip(names, scores), key=lambda kv: (-kv[1], kv[0]))
    return ImportanceRanking(entries=[(n, float(s)) for n, s in order], scope=scope)


def global_importance(shap: ShapMatrix) -> ImportanceRanking:
    """Mean absolute attribution per class, summed across classes."""
    if shap.values.shape[0] == 0:
        raise ValueError("empty attribution matrix")
    scores = np.abs(shap.values).mean(axis=0).sum(axis=0)
    return _ranked(shap.feature_names, scores, "global")


def per_class_importance(shap: ShapMatrix, class_k: int) -> ImportanceRanking:
    """Mean absolute attribution for one class."""
    if not 0 <= class_k < shap.values.shape[1]:
        raise ValueError("class index out of range")
    if shap.values.shape[0] == 0:
        raise ValueError("empty attribution matrix")
    scores = np.abs(shap.values[:, class_k, :]).mean(axis=0)
    return _ranked(shap.feature_names, scores, f"class:{class_k}")


def write_shap_csv(shap: ShapMatrix, class_names, path) -> None:
    """Long-form export, one row per (sample_index, class, feature), as ``csv.writer`` writes it."""
    middles = []  # each (class, feature) pair's quoted ",class,feature," is built once
    for k in range(shap.values.shape[1]):
        for name in shap.feature_names:
            buf = io.StringIO()
            csv.writer(buf).writerow(["", class_names[k], name, ""])
            middles.append(buf.getvalue()[:-2])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("sample_index,class,feature,phi\r\n")
        for s, sample in enumerate(shap.values):
            phis = map(repr, sample.reshape(-1).tolist())
            fh.write("".join([f"{s}{mid}{phi}\r\n" for mid, phi in zip(middles, phis)]))


def write_ranking_csv(ranking: ImportanceRanking, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "feature", "score"])
        for rank, (name, score) in enumerate(ranking.entries, start=1):
            writer.writerow([rank, name, repr(score)])
