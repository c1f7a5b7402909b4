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


def confusion(y_true, y_pred, n_classes: int) -> ConfusionMatrix:
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
    return ConfusionMatrix(counts=counts)


def per_class_metrics(cm: ConfusionMatrix) -> list[ClassMetrics]:
    """One-vs-rest precision/recall/F1 per class; a zero denominator scores 0."""
    tp, predicted, support = np.diag(cm.counts), cm.counts.sum(axis=0), cm.counts.sum(axis=1)
    precision = np.divide(tp, predicted, out=np.zeros(len(tp)), where=predicted > 0)
    recall = np.divide(tp, support, out=np.zeros(len(tp)), where=support > 0)
    both = precision + recall
    f1 = np.divide(2.0 * precision * recall, both, out=np.zeros(len(tp)), where=both > 0)
    return [ClassMetrics(*m) for m in zip(*(a.tolist() for a in (precision, recall, f1, support)))]


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


def timed_evaluate(ens: gbt.TreeEnsemble, test: FlowTable, train_seconds: float = 0.0) -> EvalReport:
    """Predict the whole table and score the predictions, timing the prediction pass."""
    if list(test.feature_names) != list(ens.feature_names):
        raise ValueError("table features do not match the model")
    if list(test.class_names) != list(ens.class_names):
        raise ValueError("table classes do not match the model")
    t0 = time.perf_counter()
    y_pred = gbt.predict_classes(ens, test.features)
    predict_seconds = time.perf_counter() - t0
    per_class = per_class_metrics(confusion(test.labels, y_pred, len(test.class_names)))
    accuracy, macro, weighted = aggregate(per_class)
    return EvalReport(accuracy=accuracy, per_class=per_class, macro=macro, weighted=weighted,
                      class_names=list(test.class_names), train_seconds=train_seconds,
                      predict_seconds=predict_seconds)


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
