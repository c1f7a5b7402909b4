"""Forward feature selection driven by an importance ranking, plus filter baselines.

The forward pass walks the ranking, retrains a fresh ensemble on the growing
subset with inverse-frequency sample weights, and keeps a candidate only when
it strictly improves macro F1 on the evaluation table. Filter scorers
(correlation, chi-square, ANOVA F) rank features by a model-free statistic.
"""

from dataclasses import dataclass, field

import numpy as np

from . import gbt, metrics
from .explain import ImportanceRanking, _ranked
from .ingest import FlowTable, SchemaError

ANOVA_SENTINEL = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class Trial:
    feature: str
    f1: float
    accepted: bool


@dataclass
class SelectionResult:
    trace: list[Trial]
    selected: list[str]
    f1_best: float
    evaluation_scope: str
    method: str
    # (ensemble, report) of the selected subset on the training and evaluation
    # tables, or None when nothing is selected; not in the selection document.
    fit: tuple | None = field(default=None, compare=False, repr=False)


@dataclass
class FilterScores:
    method: str
    scores: np.ndarray
    feature_names: list[str]


def check_pass_limits(max_candidates, patience) -> None:
    """Reject a candidate cap or a patience below 1; None means no limit."""
    for name, value in (("max_candidates", max_candidates), ("patience", patience)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1 when set")


def run_forward_pass(candidates, evaluate, max_candidates=None, patience=None):
    """Greedy strict-improvement pass over ranked candidates.

    ``evaluate`` maps a feature subset to its score. Every trial lands in the
    trace; the returned selected list holds accepted candidates in order.
    """
    if not candidates:
        raise ValueError("empty candidate ranking")
    check_pass_limits(max_candidates, patience)
    pool = list(candidates) if max_candidates is None else list(candidates)[:max_candidates]
    f1_best = 0.0
    selected: list[str] = []
    trace: list[Trial] = []
    stale = 0
    for name in pool:
        f1_new = float(evaluate(selected + [name]))
        accepted = f1_new > f1_best
        trace.append(Trial(feature=name, f1=f1_new, accepted=accepted))
        if accepted:
            f1_best = f1_new
            selected = selected + [name]
            stale = 0
        else:
            stale += 1
            if patience is not None and stale >= patience:
                break
    return trace, selected, f1_best


def forward_select(ranking: ImportanceRanking, train: FlowTable, eval_table: FlowTable,
                   hp: gbt.Hyperparams, max_candidates=None, patience=None,
                   evaluation_scope: str = "validation") -> SelectionResult:
    """Rank-ordered forward selection with per-candidate retraining."""
    names = [name for name, _ in ranking.entries]
    train_features = set(train.feature_names)
    if set(names) != train_features:
        raise SchemaError("ranking does not cover exactly the training features")
    if set(eval_table.feature_names) != train_features or list(eval_table.class_names) != list(train.class_names):
        raise SchemaError("evaluation table schema does not match training table")

    fits = {}  # subset -> fit, for the current selection and the trial in flight

    def evaluate(subset):
        for stale in fits.keys() - {tuple(subset[:-1])}:  # a trial extends the selection by one
            del fits[stale]
        fits[tuple(subset)] = metrics.fit_and_evaluate(train.restrict(subset), eval_table.restrict(subset), hp)
        return fits[tuple(subset)][1].macro.f1

    trace, selected, f1_best = run_forward_pass(names, evaluate, max_candidates, patience)
    return SelectionResult(
        trace=trace,
        selected=selected,
        f1_best=f1_best,
        evaluation_scope=evaluation_scope,
        method="shap",
        fit=fits.get(tuple(selected)),
    )


def correlation_scores(table: FlowTable) -> FilterScores:
    """Absolute Pearson correlation between each feature and the label codes."""
    if table.n_rows < 2:
        raise ValueError("need at least 2 rows")
    X = table.features
    y = table.labels.astype(np.float64)
    xc = X - X.mean(axis=0)
    yc = y - y.mean()
    num = (xc * yc[:, None]).sum(axis=0)  # rows added in order: no BLAS call
    den = np.sqrt((xc * xc).sum(axis=0) * (yc * yc).sum())
    scores = np.divide(np.abs(num), den, out=np.zeros_like(den), where=den > 0)
    return FilterScores("correlation", scores, list(table.feature_names))


def chi_square_scores(table: FlowTable) -> FilterScores:
    """Chi-square statistic over min-max scaled (hence nonnegative) features."""
    if table.n_rows < 2:
        raise ValueError("need at least 2 rows")
    X = table.features
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    scaled = X - lo  # a constant column's cells are exactly 0 here
    np.divide(scaled, span, out=scaled, where=span > 0)
    K = len(table.class_names)
    n = table.n_rows
    scores = np.zeros(table.n_features)
    total = scaled.sum(axis=0)
    for k in range(K):
        mask = table.labels == k
        observed = scaled[mask].sum(axis=0)
        expected = (mask.sum() / n) * total
        scores += np.divide((observed - expected) ** 2, expected,
                            out=np.zeros_like(expected), where=expected > 0)
    return FilterScores("chi_square", scores, list(table.feature_names))


def anova_scores(table: FlowTable) -> FilterScores:
    """One-way F statistic: between-class over within-class mean squares."""
    labels = table.labels
    present = [k for k in range(len(table.class_names)) if (labels == k).any()]
    if len(present) < 2:
        raise ValueError("ANOVA needs at least 2 classes present")
    counts = {k: int((labels == k).sum()) for k in present}
    for k, c in counts.items():
        if c < 2:
            raise ValueError(f"class {table.class_names[k]!r} has a single sample")
    X = table.features
    n = table.n_rows
    k_groups = len(present)
    grand = X.mean(axis=0)
    ssb = np.zeros(table.n_features)
    ssw = np.zeros(table.n_features)
    for k in present:
        block = X[labels == k]
        mean_k = block.mean(axis=0)
        ssb += block.shape[0] * (mean_k - grand) ** 2
        block -= mean_k  # block is a copy: centre and square it in place
        block *= block
        ssw += block.sum(axis=0)
    msb = ssb / (k_groups - 1)
    msw = ssw / (n - k_groups)
    scores = np.divide(msb, msw, out=np.where(msb > 0, ANOVA_SENTINEL, 0.0), where=msw > 0)
    return FilterScores("anova", scores, list(table.feature_names))


def filter_select(scores: FilterScores, k: int) -> list[str]:
    """Top-k feature names by descending score with lexicographic tie-break."""
    if not 0 < k <= len(scores.feature_names):
        raise ValueError(f"k must lie in [1, {len(scores.feature_names)}]")
    return [name for name, _ in _ranked(scores.feature_names, scores.scores, scores.method).entries[:k]]


FILTER_SCORERS = {
    "correlation": correlation_scores,
    "chi_square": chi_square_scores,
    "anova": anova_scores,
}


def selection_to_dict(result: SelectionResult) -> dict:
    return {
        "method": result.method,
        "evaluation_scope": result.evaluation_scope,
        "trace": [
            {"feature": t.feature, "f1": t.f1, "accepted": t.accepted}
            for t in result.trace
        ],
        "selected": list(result.selected),
        "f1_best": result.f1_best,
    }
