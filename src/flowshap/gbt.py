"""Regularized gradient-boosted decision trees with a multiclass softmax objective.

Trees are grown by exact greedy split enumeration: every boundary between
distinct sorted feature values is scored with the second-order gain

    gain = 1/2 * [ T(GL)^2/(HL+lambda) + T(GR)^2/(HR+lambda)
                   - T(GL+GR)^2/(HL+HR+lambda) ] - gamma

where T(G)^2 = max(|G| - alpha, 0)^2 squares the L1 soft threshold, whose sign
only a leaf keeps. ``train`` leaves out the columns that are constant over its
table, which have no boundary, and sorts each other feature once. A node whose
hessian sum H has H - min_child_weight < min_child_weight is a leaf without a
search, since a left child with HL >= min_child_weight leaves H - HL below it.
Any other node scores its features in blocks of SPLIT_BLOCK_ELEMENTS // rows,
in four block-sized arrays with the cumulative sums taken in place; a side's
gain terms are a plain division when all its denominators are positive, else 0
where one is not. The first maximum in feature-major order wins, so ties go to
the lower feature index, then the lower threshold. The winning feature's sorted
rows up to the boundary are the left child, and each child keeps the entries of
its parent's sorted rows that go its way, the stable sort of its own rows. Leaf
values are -T(G)/(H+lambda) times the learning rate. Training is deterministic.
"""

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .ingest import FlowTable

MODEL_FORMAT_VERSION = 1

# Element budget (rows x features) of one block of split search temporaries.
SPLIT_BLOCK_ELEMENTS = 2**14


class ModelFormatError(ValueError):
    """Rejected model document: bad version, malformed nodes, or NaN values."""


@dataclass(frozen=True)
class Hyperparams:
    n_estimators: int = 100
    learning_rate: float = 0.3
    max_depth: int = 6
    min_child_weight: float = 1.0
    gamma: float = 0.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    objective: str = "multiclass_softmax"
    base_score: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            if f.type is int and type(getattr(self, f.name)) is not int:
                raise ValueError(f"{f.name} must be an integer")
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be nonnegative")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be positive")
        if min(self.min_child_weight, self.gamma, self.reg_lambda, self.reg_alpha) < 0:
            raise ValueError("regularization terms must be nonnegative")
        if self.objective != "multiclass_softmax":
            raise ValueError(f"unsupported objective {self.objective!r}")


# Model-document key of each Hyperparams field; the L2 and L1 terms keep
# XGBoost's names.
HYPERPARAM_KEYS = {
    f.name: {"reg_lambda": "lambda", "reg_alpha": "alpha"}.get(f.name, f.name)
    for f in fields(Hyperparams)
}


@dataclass
class Tree:
    """One regression tree as parallel node arrays; -1 children mark leaves.

    Routing sends a sample left iff feature value < threshold. ``cover`` is
    the hessian-weighted sample mass that reached each node during training.
    """

    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64, 0.0 at leaves
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    value: np.ndarray      # float64, leaf value at leaves, 0.0 elsewhere
    cover: np.ndarray      # float64

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    @property
    def n_internal(self) -> int:
        return int((self.feature >= 0).sum())

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values reached by routing each row of X."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int32)
        while True:
            feat = self.feature[node]
            live = np.nonzero(feat >= 0)[0]
            if live.size == 0:
                break
            at = node[live]
            goleft = X[live, feat[live]] < self.threshold[at]
            node[live] = np.where(goleft, self.left[at], self.right[at])
        return self.value[node]


def _tree_from_records(records) -> Tree:
    """Tree from [feature, threshold, left, right, value, cover] node records."""
    dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64, np.float64)
    return Tree(*(np.array(column, dtype=t) for column, t in zip(zip(*records), dtypes)))


@dataclass
class TreeEnsemble:
    """Boosted trees ordered round-major, class-minor (round r, class k -> r*K + k)."""

    trees: list[Tree]
    n_classes: int
    base_score: float
    feature_names: list[str]
    class_names: list[str]
    hyperparams: Hyperparams

    def class_trees(self, k: int) -> list[Tree]:
        return self.trees[k :: self.n_classes]


def _softmax_rows(margins: np.ndarray) -> np.ndarray:
    z = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _grad_hess_matrix(margins, labels, weights):
    p = _softmax_rows(margins)
    g = weights[:, None] * p
    g[np.arange(labels.shape[0]), labels] -= weights
    h = weights[:, None] * p * (1.0 - p)
    return g, h


def softmax_grad_hess(margins, true_class: int, weight: float):
    """Gradient and hessian of weighted softmax cross-entropy at one sample."""
    m = np.asarray(margins, dtype=np.float64)
    if m.ndim != 1 or m.shape[0] < 2:
        raise ValueError("margins must be a vector over at least 2 classes")
    if not 0 <= true_class < m.shape[0]:
        raise ValueError("true_class out of range")
    if weight <= 0:
        raise ValueError("weight must be positive")
    g, h = _grad_hess_matrix(
        m[None, :], np.array([true_class]), np.array([float(weight)])
    )
    return g[0], h[0]


def _gain_terms(G, H, hp: Hyperparams):
    """max(|G| - alpha, 0)^2 / (H + lambda), 0 where H + lambda is not positive, written over G and H (a number copied first)."""
    G, H = np.asarray(G, dtype=np.float64), np.asarray(H, dtype=np.float64)
    if hp.reg_alpha > 0:
        np.maximum(np.subtract(np.abs(G, out=G), hp.reg_alpha, out=G), 0.0, out=G)
    num = np.multiply(G, G, out=G)
    denom = np.add(H, hp.reg_lambda, out=H)
    if denom.min() > 0:  # the masked division's bits, without its mask and zero fill
        return np.divide(num, denom, out=num)
    return np.divide(num, denom, out=np.zeros(denom.shape), where=denom > 0)


def _split_gains(GL, HL, GR, HR, parent, hp: Hyperparams):
    """1/2 (L + R - P) - gamma: L, R the children's gain terms, written over their sums, P ``parent``'s."""
    gains = _gain_terms(GL, HL, hp)
    gains += _gain_terms(GR, HR, hp)
    gains -= parent
    gains *= 0.5
    if hp.gamma:  # x - 0.0 is x
        gains -= hp.gamma
    return gains


def split_gain(GL: float, HL: float, GR: float, HR: float, hp: Hyperparams) -> float:
    """Gain of a candidate split from aggregated child gradients/hessians; the sums are copied."""
    return float(_split_gains(*map(np.array, (GL, HL, GR, HR)), _gain_terms(GL + GR, HL + HR, hp), hp))


def _best_split(XT, idx, g, h, G, H, hp: Hyperparams):
    """Exact greedy search over all features and distinct-value boundaries of
    a node: row f of ``idx`` holds its rows sorted by feature f (row f of XT),
    and G and H are its gradient and hessian sums.

    Returns (feature_index, threshold, gain, i) or None; the rows at
    ``idx[feature_index, : i + 1]`` go left. Ties go to the lower feature
    index, then the lower threshold.

    A block holds four float arrays of its size at most: the left sums, taken
    in place on the gathers of g and h, and the right sums, all of which the
    gain terms overwrite. Its last column sums every row and is masked out.
    """
    mcw = hp.min_child_weight
    if idx.shape[1] < 2 or H - mcw < mcw:  # HL >= mcw implies H - HL < mcw
        return None
    parent = float(_gain_terms(G, H, hp))
    width = max(1, SPLIT_BLOCK_ELEMENTS // idx.shape[1])
    best = None
    for start in range(0, XT.shape[0], width):
        order = idx[start : start + width]
        at = np.arange(start, start + order.shape[0])[:, None] * XT.shape[1]
        sv = XT.ravel()[order + at]  # one flat gather: cheaper than 2-D fancy indexing
        ok = np.zeros(order.shape, dtype=bool)  # the last column sums every row: no boundary
        np.less(sv[:, :-1], sv[:, 1:], out=ok[:, :-1])  # False wherever a NaN is compared
        del sv
        GL, HL = g[order], h[order]
        GL.cumsum(axis=1, out=GL)  # in place: the same sequential sums
        HL.cumsum(axis=1, out=HL)
        HR = H - HL
        ok &= (HL >= mcw) & (HR >= mcw)
        gains = _split_gains(GL, HL, G - GL, HR, parent, hp)
        np.copyto(gains, -np.inf, where=~ok)  # feature-major: the first maximum wins ties
        f, i = divmod(int(gains.argmax()), gains.shape[1])
        gain = float(gains[f, i])
        if gain > 0.0 and (best is None or gain > best[2]):
            lo, hi = XT[start + f, order[f, i : i + 2]].tolist()
            thr = (lo + hi) / 2.0
            if not lo < thr <= hi:  # adjacent floats collapse, huge ones overflow
                thr = hi
            best = (start + f, thr, gain, i)
    return best


def find_best_split(node_rows, g, h, table: FlowTable, hp: Hyperparams):
    """Best qualifying split for the given rows, or None to make a leaf."""
    rows = np.asarray(node_rows)
    n = table.n_rows
    if (rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu" or rows.min() < 0
            or rows.max() >= n or np.bincount(rows.astype(np.int64)).max() > 1):
        raise ValueError(f"node_rows must be distinct integer row indices in [0, {n})")
    g, h = np.asarray(g), np.asarray(h)
    if g.shape != (n,) or h.shape != (n,):
        raise ValueError(f"g and h must hold one entry per table row ({n}), got shapes {g.shape} and {h.shape}")
    G, H = float(g[rows].sum()), float(h[rows].sum())
    XT = np.ascontiguousarray(table.features[rows].T)  # the node's own table
    best = _best_split(XT, np.argsort(XT, axis=1, kind="stable"), g[rows], h[rows], G, H, hp)
    return None if best is None else best[:3]


def _leaf_value(G: float, H: float, hp: Hyperparams) -> float:
    Gt = math.copysign(max(abs(G) - hp.reg_alpha, 0.0), G)  # T(G): the one place its sign is kept
    denom = H + hp.reg_lambda
    if denom <= 0:
        return 0.0
    return -Gt / denom * hp.learning_rate


def _grow_tree(XT, order, g, h, hp: Hyperparams):
    """One tree grown depth-first from ``order``, the rows sorted by each
    feature, and the leaf value each row reached. Live index matrices belong
    to the current node and the pending right siblings: disjoint rows. A node
    at ``max_depth`` gets none, and is a leaf."""
    m, n = XT.shape
    nodes: list[list] = []  # preorder [feature, threshold, left, right, value, cover]
    fitted = np.empty(n)
    pending = [(None, 0, np.arange(n, dtype=np.int64), order, 0)]
    while pending:  # a node is numbered when popped, left child before right
        parent, slot, rows, idx, depth = pending.pop()
        if parent is not None:
            parent[slot] = len(nodes)
        G, H = float(g[rows].sum()), float(h[rows].sum())
        node = [-1, 0.0, -1, -1, 0.0, H]
        nodes.append(node)
        split = None if idx is None else _best_split(XT, idx, g, h, G, H, hp)
        if split is None:
            node[4] = fitted[rows] = _leaf_value(G, H, hp)
            continue
        f, thr, _, i = split
        node[:2] = f, thr
        goes_left = np.zeros(n, dtype=bool)
        goes_left[idx[f, : i + 1]] = True  # the rows below thr in f's sorted order
        left = goes_left[rows]
        kids = None, None
        if depth + 1 < hp.max_depth:
            goleft = goes_left[idx]
            kids = idx[~goleft].reshape(m, -1), idx[goleft].reshape(m, -1)
        pending.append((node, 3, rows[~left], kids[0], depth + 1))
        pending.append((node, 2, rows[left], kids[1], depth + 1))
    return _tree_from_records(nodes), fitted


def train(train_table: FlowTable, hp: Hyperparams) -> TreeEnsemble:
    """Boost one tree per class per round against the softmax objective.

    Gradients are refreshed once per round from the current margins; one
    (round, class) pair that admits no qualifying split still stores its
    single-leaf tree so the round-major/class-minor indexing stays dense.
    A tree with a non-finite leaf value or cover raises ValueError.
    """
    X = train_table.features
    y = train_table.labels
    w = train_table.sample_weights
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty table")
    if y.min() == y.max():  # not np.unique, which imports numpy.ma (about 1.3 MB)
        raise ValueError("training requires at least 2 classes present")
    K = len(train_table.class_names)
    feats = np.flatnonzero(X.min(axis=0) < X.max(axis=0))  # a constant column never splits
    XT = np.ascontiguousarray(X.T[feats])
    order = np.argsort(XT, axis=1, kind="stable")  # the one sort of this call
    margins = np.full((n, K), hp.base_score, dtype=np.float64)
    trees: list[Tree] = []
    for r in range(hp.n_estimators):
        g, h = (a.T.copy() for a in _grad_hess_matrix(margins, y, w))  # one row per class
        for k in range(K):
            tree, fitted = _grow_tree(XT, order, g[k], h[k], hp)
            bad = np.flatnonzero(~(np.isfinite(tree.value) & np.isfinite(tree.cover)))
            if bad.size:  # e.g. a gradient sum over a subnormal hessian sum under lambda = 0
                i = bad[0]
                raise ValueError(f"round {r}, class {k} ({train_table.class_names[k]}), node {i}: leaf value "
                                 f"{float(tree.value[i])}, cover {float(tree.cover[i])}; a model holds finite numbers only")
            split = tree.feature >= 0
            tree.feature[split] = feats[tree.feature[split]]
            trees.append(tree)
            margins[:, k] += fitted
    return TreeEnsemble(
        trees=trees,
        n_classes=K,
        base_score=hp.base_score,
        feature_names=list(train_table.feature_names),
        class_names=list(train_table.class_names),
        hyperparams=hp,
    )


def predict_margins(ens: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    """Per-class additive scores for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(ens.feature_names):
        raise ValueError(
            f"expected {len(ens.feature_names)} features, got {X.shape[1] if X.ndim == 2 else 'a non-matrix'}"
        )
    out = np.full((X.shape[0], ens.n_classes), ens.base_score, dtype=np.float64)
    for i, tree in enumerate(ens.trees):
        out[:, i % ens.n_classes] += tree.predict(X)
    return out


def predict_margin(ens: TreeEnsemble, x) -> np.ndarray:
    """Per-class score for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (len(ens.feature_names),):
        raise ValueError(f"expected {len(ens.feature_names)} features, got {x.shape}")
    return predict_margins(ens, x[None, :])[0]


def predict_classes(ens: TreeEnsemble, X: np.ndarray) -> np.ndarray:
    return np.argmax(predict_margins(ens, X), axis=1)


def predict_class(ens: TreeEnsemble, x) -> int:
    """argmax over margins; ties resolve to the lowest class index."""
    return int(np.argmax(predict_margin(ens, x)))


def _hyperparams_to_json(hp: Hyperparams) -> dict:
    return {key: getattr(hp, name) for name, key in HYPERPARAM_KEYS.items()}


# JSON types a model document may hold for a field of each Python type: JSON
# numbers need no decimal point, and bool is a subclass of int.
_JSON_TYPES = {int: int, float: (int, float), str: str, list: list}


def _checked(value, kind: type, what: str):
    """``value`` as ``kind`` if the document holds that JSON type (a finite
    number for a float), else ModelFormatError."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ModelFormatError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # json reads 1e999 as inf, 10**400 as an int
        raise ModelFormatError(f"{what} must be finite, got {value!r}")
    return kind(value)


def _names(value, what: str) -> list[str]:
    """A document's name list, which must be a JSON array of distinct strings."""
    names = [_checked(name, str, f"{what} entry") for name in _checked(value, list, what)]
    if len(set(names)) != len(names):
        raise ModelFormatError(f"{what} must be distinct, got {names!r}")
    return names


def _hyperparams_from_json(doc: dict) -> Hyperparams:
    try:
        return Hyperparams(**{
            f.name: _checked(doc[HYPERPARAM_KEYS[f.name]], f.type, HYPERPARAM_KEYS[f.name])
            for f in fields(Hyperparams)
        })
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"bad hyperparams block: {exc}") from exc


def _tree_to_nodes(tree: Tree) -> list[dict]:
    nodes = []
    for i in range(tree.n_nodes):
        split = bool(tree.feature[i] >= 0)
        nodes.append({
            "kind": "split" if split else "leaf",
            "feature": int(tree.feature[i]) if split else None,
            "threshold": float(tree.threshold[i]) if split else None,
            "left": int(tree.left[i]) if split else None,
            "right": int(tree.right[i]) if split else None,
            "value": None if split else float(tree.value[i]),
            "cover": float(tree.cover[i]),
        })
    return nodes


def _tree_from_nodes(nodes: list, n_features: int) -> Tree:
    """Tree from a document's node list, which must be a tree rooted at node 0:
    each child numbered after its parent and every other node one's child."""
    count = len(nodes)
    if count == 0:
        raise ModelFormatError("tree has no nodes")
    records = []
    parents = [0] * count
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "kind" not in node:
            raise ModelFormatError(f"node {i} is not a tagged object")
        kind = node["kind"]
        try:
            cover = _checked(node.get("cover", 0.0), float, f"node {i} cover")
            if kind == "split":
                f = _checked(node["feature"], int, f"node {i} feature")
                if not 0 <= f < n_features:
                    raise ModelFormatError(f"node {i}: feature index {f!r} out of range")
                thr = _checked(node["threshold"], float, f"node {i} threshold")
                l, r = (_checked(node[side], int, f"node {i} {side}") for side in ("left", "right"))
                for c in (l, r):
                    if not i < c < count:
                        raise ModelFormatError(f"node {i}: child index {c} not in ({i}, {count})")
                    parents[c] += 1
                records.append([f, thr, l, r, 0.0, cover])
            elif kind == "leaf":
                value = _checked(node["value"], float, f"node {i} value")
                records.append([-1, 0.0, -1, -1, value, cover])
            else:
                raise ModelFormatError(f"node {i}: unknown kind {kind!r}")
        except KeyError as exc:
            raise ModelFormatError(f"node {i}: missing field {exc}") from exc
    for c in range(1, count):
        if parents[c] != 1:
            raise ModelFormatError(f"node {c} is the child of {parents[c]} nodes, not 1")
    return _tree_from_records(records)


def serialize(ens: TreeEnsemble) -> bytes:
    """Versioned UTF-8 JSON document with exact float round-trip; a non-finite value raises ValueError."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparams": _hyperparams_to_json(ens.hyperparams),
        "classes": list(ens.class_names),
        "features": list(ens.feature_names),
        "base_score": ens.base_score,
        "trees": [{"nodes": _tree_to_nodes(t)} for t in ens.trees],
    }
    try:
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
    except ValueError as exc:  # name the first non-finite value of a tree
        where = next((f"tree {t} node {i}: {field} is {value!r}" for t, tree in enumerate(doc["trees"])
                      for i, node in enumerate(tree["nodes"]) for field, value in node.items()
                      if isinstance(value, float) and not math.isfinite(value)), "a value outside the trees")
        raise ValueError(f"{where}; a model holds finite numbers only") from exc


def _reject_constant(token: str):
    raise ModelFormatError(f"non-finite literal {token!r} in model document")


def deserialize(data: bytes) -> TreeEnsemble:
    try:
        doc = json.loads(
            data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data,
            parse_constant=_reject_constant,
        )
    except ValueError as exc:  # JSONDecodeError, a bad UTF-8 byte, or an integer past str-to-int's digit limit
        raise ModelFormatError(f"malformed model document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        classes, features = (_names(doc[key], key) for key in ("classes", "features"))
        base_score = _checked(doc["base_score"], float, "base_score")
        tree_docs = doc["trees"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"missing or malformed field: {exc}") from exc
    if not isinstance(tree_docs, list):
        raise ModelFormatError("trees must be an array")
    hp = _hyperparams_from_json(doc.get("hyperparams", {}))
    if len(classes) < 2 or len(tree_docs) != hp.n_estimators * len(classes):
        raise ModelFormatError(
            f"{len(tree_docs)} trees are not {hp.n_estimators} rounds of one tree for each"
            f" of {len(classes)} classes (at least 2)"
        )
    trees = []
    for t in tree_docs:
        if not isinstance(t, dict) or not isinstance(t.get("nodes"), list):
            raise ModelFormatError("each tree must be an object with a nodes array")
        trees.append(_tree_from_nodes(t["nodes"], len(features)))
    return TreeEnsemble(
        trees=trees,
        n_classes=len(classes),
        base_score=base_score,
        feature_names=features,
        class_names=classes,
        hyperparams=hp,
    )


def save_model(ens: TreeEnsemble, path) -> None:
    data = serialize(ens)  # before the file is opened: a refused model leaves none
    with open(path, "wb") as fh:
        fh.write(data)


def load_model(path) -> TreeEnsemble:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
