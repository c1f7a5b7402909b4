"""Flow CSV ingestion and preprocessing.

Parses CICFlowMeter-style flow records, drops identifier columns, removes
rows with null or non-finite cells, label-encodes categorical columns, and
produces dense float64 feature tables with per-row sample weights.
"""

import csv
import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np

from .prng import SplitMix64

# Identifier columns that would let the model memorize the labeling process
# instead of learning traffic behavior.
DEFAULT_DROP_COLUMNS = (
    "Flow ID",
    "Src IP",
    "Src Port",
    "Dst IP",
    "Dst Port",
    "Timestamp",
)

DEFAULT_LABEL_COLUMN = "Stage"


class ParseError(ValueError):
    """Malformed CSV input (missing header, ragged row)."""


class SchemaError(ValueError):
    """Structurally valid input that violates the expected table schema."""


@dataclass
class RawTable:
    """Header names plus data rows kept as raw text cells."""

    column_names: list[str]
    rows: list[list[str]]

    @property
    def row_count(self) -> int:
        return len(self.rows)


@dataclass
class FlowTable:
    """Dense numeric feature matrix with encoded labels and sample weights.

    Invariants: every feature cell is finite, labels index into the
    lexicographically sorted ``class_names``, and weights are positive.
    """

    feature_names: list[str]
    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]
    sample_weights: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sample_weights = np.asarray(self.sample_weights, dtype=np.float64)
        n, m = self.features.shape
        if len(self.feature_names) != m:
            raise SchemaError("feature name count does not match matrix width")
        if len(set(self.feature_names)) != m:
            raise SchemaError("feature names must be unique")
        if self.labels.shape != (n,) or self.sample_weights.shape != (n,):
            raise SchemaError("labels and sample_weights must have one entry per row")
        if list(self.class_names) != sorted(self.class_names):
            raise SchemaError("class_names must be sorted lexicographically")
        if n:
            if not np.isfinite(self.features).all():
                raise SchemaError("feature matrix contains non-finite cells")
            if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
                raise SchemaError("labels reference invalid class indices")
            if not (self.sample_weights > 0).all():
                raise SchemaError("sample weights must be positive")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def restrict(self, feature_subset) -> "FlowTable":
        """New table containing only the given feature columns, in the given order."""
        index = {name: i for i, name in enumerate(self.feature_names)}
        missing = [f for f in feature_subset if f not in index]
        if missing:
            raise SchemaError(f"unknown features: {missing}")
        cols = [index[f] for f in feature_subset]  # fancy indexing copies
        return replace(self, feature_names=list(feature_subset), features=self.features[:, cols])

    def take(self, row_indices) -> "FlowTable":
        rows = np.asarray(row_indices, dtype=np.int64)
        return replace(self, features=self.features[rows], labels=self.labels[rows],
                       sample_weights=self.sample_weights[rows])


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights: total / (n_classes * class_count)."""

    weights: np.ndarray
    class_counts: np.ndarray
    total: int


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


def load_csv(path) -> RawTable:
    """Read a header-first CSV into raw text cells, preserving row order."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: missing header") from None
        if not header or all(c.strip() == "" for c in header):
            raise ParseError(f"{path}: missing header")
        names = [c.strip() for c in header]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SchemaError(f"{path}: duplicate header names: {dupes}")
        rows = []
        width = len(names)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"{path}: line {reader.line_num}: expected {width} cells, got {len(row)}"
                )
            rows.append(row)
    return RawTable(column_names=names, rows=rows)


def _parse_cell(text: str):
    """Classify one cell: finite float, None for null/non-finite, or raw text.

    Empty cells and any spelling of NaN/Infinity (case-insensitive) count as
    non-finite; anything unparseable is categorical text.
    """
    s = text.strip()
    if s == "":
        return None
    try:
        v = float(s)
    except ValueError:
        return s
    return v if math.isfinite(v) else None


def _parse_column(rows, c: int):
    """Column ``c`` as float64 values plus null and text masks, via ``_parse_cell``."""
    n = len(rows)
    values = np.fromiter(
        (v if isinstance(v, float) else math.nan for v in map(_parse_cell, map(itemgetter(c), rows))),
        dtype=np.float64, count=n,
    )
    missing = np.isnan(values)  # _parse_cell never yields a NaN float
    text = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(missing):
        text[i] = isinstance(_parse_cell(rows[i][c]), str)
    return values, missing & ~text, text


def preprocess(raw: RawTable, drop_columns=None, label_column: str = DEFAULT_LABEL_COLUMN) -> FlowTable:
    """Drop identifier columns, purge non-finite rows, and label-encode.

    Rows containing a null/empty/NaN/Infinity cell in any retained column are
    removed entirely; remaining categorical columns (and the label) are
    integer-coded by lexicographic order of their distinct values.
    """
    drops = set(DEFAULT_DROP_COLUMNS if drop_columns is None else drop_columns)
    if label_column not in raw.column_names:
        raise SchemaError(f"label column {label_column!r} not found")
    if label_column in drops:
        raise SchemaError(f"label column {label_column!r} cannot be dropped")
    unknown = sorted(drops - set(raw.column_names))
    if unknown:
        raise SchemaError(f"drop columns not present: {unknown}")

    col_index = {name: i for i, name in enumerate(raw.column_names)}
    kept = [c for c in raw.column_names if c not in drops and c != label_column]
    kept_cols = [col_index[c] for c in kept]
    label_idx = col_index[label_column]
    rows = raw.rows

    # Parse each retained column once; a row survives only if no retained
    # cell (label included) is null.
    features = np.empty((len(rows), len(kept)), dtype=np.float64)
    is_text = np.empty((len(rows), len(kept)), dtype=bool)
    keep = ~_parse_column(rows, label_idx)[1]
    for j, c in enumerate(kept_cols):
        features[:, j], null, is_text[:, j] = _parse_column(rows, c)
        keep &= ~null
    kept_rows = np.flatnonzero(keep)
    if not kept_rows.size:
        raise ValueError("empty table after preprocessing")
    features = features[kept_rows]

    # A column is numeric iff no surviving cell is categorical text; text
    # columns are coded from the original stripped cell text.
    for j in np.flatnonzero(is_text[kept_rows].any(axis=0)):
        values = [rows[i][kept_cols[j]].strip() for i in kept_rows]
        codes = {v: k for k, v in enumerate(sorted(set(values)))}
        features[:, j] = [codes[v] for v in values]

    label_values = [rows[i][label_idx].strip() for i in kept_rows]
    class_names = sorted(set(label_values))
    encoder = {name: k for k, name in enumerate(class_names)}
    labels = np.array([encoder[v] for v in label_values], dtype=np.int64)

    return FlowTable(
        feature_names=kept,
        features=features,
        labels=labels,
        class_names=class_names,
        sample_weights=np.ones(len(kept_rows), dtype=np.float64),
    )


def _train_count(fraction: float, count: int) -> int:
    # round(fraction * count) with exact halves going down
    return int(math.ceil(fraction * count - 0.5))


def stratified_split(table: FlowTable, spec: SplitSpec) -> tuple[FlowTable, FlowTable]:
    """Seed-deterministic train/test partition; per-class when stratified."""
    rng = SplitMix64(spec.seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    if spec.stratified:
        for k, name in enumerate(table.class_names):
            rows = np.nonzero(table.labels == k)[0].tolist()
            if len(rows) == 1:
                raise ValueError(
                    f"class {name!r} has a single sample; cannot split stratified"
                )
            if not rows:
                continue
            rng.shuffle(rows)
            n_train = _train_count(spec.train_fraction, len(rows))
            train_idx.extend(rows[:n_train])
            test_idx.extend(rows[n_train:])
    else:
        rows = list(range(table.n_rows))
        rng.shuffle(rows)
        n_train = _train_count(spec.train_fraction, len(rows))
        train_idx = rows[:n_train]
        test_idx = rows[n_train:]
    return table.take(sorted(train_idx)), table.take(sorted(test_idx))


def class_weights(labels, n_classes: int) -> ClassWeights:
    """Inverse-frequency weights: total / (n_classes * count) per class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label outside [0, n_classes)")
    counts = np.bincount(labels, minlength=n_classes)
    absent = np.nonzero(counts == 0)[0]
    if absent.size:
        raise ValueError(f"class index {int(absent[0])} has no samples")
    total = int(labels.size)
    weights = total / (n_classes * counts)
    return ClassWeights(weights=weights, class_counts=counts, total=total)


def apply_sample_weights(table: FlowTable, cw: ClassWeights) -> FlowTable:
    """Assign each row the weight of its class."""
    if len(cw.weights) != len(table.class_names):
        raise SchemaError(
            f"weight vector covers {len(cw.weights)} classes, table has {len(table.class_names)}"
        )
    return replace(table, sample_weights=cw.weights[table.labels])


def save_table(table: FlowTable, path) -> None:
    """Lossless binary round-trip of a FlowTable (.npz)."""
    np.savez(
        path,
        features=table.features,
        labels=table.labels,
        sample_weights=table.sample_weights,
        feature_names=np.array(table.feature_names, dtype=np.str_),
        class_names=np.array(table.class_names, dtype=np.str_),
    )


def load_table(path) -> FlowTable:
    with np.load(path, allow_pickle=False) as data:
        return FlowTable(
            feature_names=[str(s) for s in data["feature_names"]],
            features=data["features"],
            labels=data["labels"],
            class_names=[str(s) for s in data["class_names"]],
            sample_weights=data["sample_weights"],
        )
