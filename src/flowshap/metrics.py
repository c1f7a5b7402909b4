"""Confusion-matrix metrics with macro and support-weighted averaging, and
the one route from a pair of tables to a fitted, scored model."""

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import gbt
from .ingest import FlowTable, apply_sample_weights, class_weights


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (K, K), rows = true class, columns = predicted
    class_names: list[str]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Averages:
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    accuracy: float
    per_class: list[ClassMetrics]
    macro: Averages
    weighted: Averages
    class_names: list[str]
    train_seconds: float
    predict_seconds: float


def confusion(y_true, y_pred, n_classes: int, class_names=None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have equal length")
    if y_true.size and (
        y_true.min() < 0 or y_true.max() >= n_classes
        or y_pred.min() < 0 or y_pred.max() >= n_classes
    ):
        raise ValueError("class index outside [0, n_classes)")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    names = list(class_names) if class_names is not None else [str(k) for k in range(n_classes)]
    return ConfusionMatrix(counts=counts, class_names=names)


def _ratio(num: float, den: float) -> float:
    # 0/0 convention: degenerate classes score 0
    return num / den if den > 0 else 0.0


def per_class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    """One-vs-rest precision/recall/F1 per class."""
    counts = cm.counts
    out = []
    for k in range(counts.shape[0]):
        tp = int(counts[k, k])
        fp = int(counts[:, k].sum()) - tp
        fn = int(counts[k, :].sum()) - tp
        precision = _ratio(tp, tp + fp)
        recall = _ratio(tp, tp + fn)
        f1 = _ratio(2.0 * precision * recall, precision + recall)
        out.append(ClassMetrics(precision, recall, f1, tp + fn))
    return out


def aggregate(per_class: list[ClassMetrics]):
    """(accuracy, macro averages, weighted averages) from per-class results."""
    if not per_class:
        raise ValueError("no per-class results to aggregate")
    total = sum(m.support for m in per_class)
    if total == 0:
        raise ValueError("zero evaluated samples")
    correct = sum(m.recall * m.support for m in per_class)
    accuracy = correct / total
    k = len(per_class)
    macro = Averages(
        precision=sum(m.precision for m in per_class) / k,
        recall=sum(m.recall for m in per_class) / k,
        f1=sum(m.f1 for m in per_class) / k,
    )
    weighted = Averages(
        precision=sum(m.precision * m.support for m in per_class) / total,
        recall=sum(m.recall * m.support for m in per_class) / total,
        f1=sum(m.f1 * m.support for m in per_class) / total,
    )
    return accuracy, macro, weighted


def macro_f1(y_true, y_pred, n_classes: int) -> float:
    _, macro, _ = aggregate(per_class_metrics(confusion(y_true, y_pred, n_classes)))
    return macro.f1


def evaluate_predictions(y_true, y_pred, class_names,
                         train_seconds: float = 0.0,
                         predict_seconds: float = 0.0) -> EvalReport:
    cm = confusion(y_true, y_pred, len(class_names), class_names)
    per_class = per_class_metrics(cm)
    accuracy, macro, weighted = aggregate(per_class)
    return EvalReport(
        accuracy=accuracy,
        per_class=per_class,
        macro=macro,
        weighted=weighted,
        class_names=list(class_names),
        train_seconds=train_seconds,
        predict_seconds=predict_seconds,
    )


def timed_evaluate(ens: gbt.TreeEnsemble, test: FlowTable, train_seconds: float = 0.0) -> EvalReport:
    """Predict the whole table, timing the prediction pass."""
    if list(test.feature_names) != list(ens.feature_names):
        raise ValueError("table features do not match the model")
    if list(test.class_names) != list(ens.class_names):
        raise ValueError("table classes do not match the model")
    t0 = time.perf_counter()
    y_pred = gbt.predict_classes(ens, test.features)
    predict_seconds = time.perf_counter() - t0
    return evaluate_predictions(
        test.labels, y_pred, test.class_names,
        train_seconds=train_seconds, predict_seconds=predict_seconds,
    )


def fit_and_evaluate(train: FlowTable, test: FlowTable, hp: gbt.Hyperparams):
    """Fit on ``train`` with its inverse-frequency class weights and score on
    ``test``; (ensemble, report), with the fit and the prediction timed."""
    weighted = apply_sample_weights(train, class_weights(train.labels, len(train.class_names)))
    t0 = time.perf_counter()
    ens = gbt.train(weighted, hp)
    return ens, timed_evaluate(ens, test, train_seconds=time.perf_counter() - t0)


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready layout: per-class block plus aggregate and timing blocks."""
    return {
        "accuracy": report.accuracy,
        "per_class": [
            {"class": name, **asdict(m)} for name, m in zip(report.class_names, report.per_class)
        ],
        "macro": asdict(report.macro),
        "weighted": asdict(report.weighted),
        "timing": {
            "train_seconds": report.train_seconds,
            "predict_seconds": report.predict_seconds,
        },
    }
