"""Flow CSV ingestion and preprocessing.

Parses CICFlowMeter-style flow records, drops identifier columns, removes
rows with null or non-finite cells, label-encodes categorical columns, and
produces dense float64 feature tables with per-row sample weights.

``_parse_cell`` states the cell rule. A column of a chunk of rows is parsed by
one C-level ``float`` pass, and cell by cell only if some cell fails it. This is
exact: ``float`` strips a subset of the whitespace ``str.strip`` removes, so if
``float(s)`` succeeds it equals ``float(s.strip())``, and non-finite is null.
"""

import csv
import io
import math
import mmap
import os
import pickle
import signal
import zipfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, zip_longest
from operator import itemgetter

import numpy as np

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

# Rows parsed at a time: the cell text of one chunk is all the CSV text held, about 1.3 MB at 256 rows
# of 84 cells. On a 30,000-row, 77-feature input, prepare peaked at 56.9 MB with 1,024-row chunks, 53.6
# with 512 and 51.7 with 256 (the table is 17.6 MB), and read the file equally fast with each. It also
# bounds save_table's gather: the rows it copies at a time before writing them.
PARSE_CHUNK_ROWS = 256
MIN_RANGE_BYTES = 1 << 20  # bytes of a parse range at least; the scan that cuts ranges reads 1/16 at a time
_MASK64 = (1 << 64) - 1  # splitmix64 state and draws are 64-bit


class ParseError(ValueError):
    """Malformed CSV input (missing header, ragged row, rows changed between reads)."""


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
            # NaN propagates through min and max, so two reductions check every cell with no temporary.
            if m and not (np.isfinite(self.features.min()) and np.isfinite(self.features.max())):
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
        """The given rows, copied."""
        rows = np.asarray(row_indices, dtype=np.int64)
        return replace(self, features=self.features[rows], labels=self.labels[rows],
                       sample_weights=self.sample_weights[rows])


def _move_rows_down(array, rows) -> None:
    """``array[:len(rows)] = array[rows]`` in chunks: ``rows`` ascend, so no row is overwritten unread."""
    for at in range(np.count_nonzero(rows == np.arange(len(rows))), len(rows), PARSE_CHUNK_ROWS):
        array[at:min(at + PARSE_CHUNK_ROWS, len(rows))] = array[rows[at:at + PARSE_CHUNK_ROWS]]


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


def _read_rows(path, start=0, lines=None, width=None, line0=0):
    """Yield at byte 0 the header's stripped names (BOM dropped), then each row's text cells in ``lines``
    lines (None: to EOF) from ``start``; a row of another width raises ``ParseError`` naming its line."""
    with io.TextIOWrapper(open(path, "rb"), "utf-8" if start else "utf-8-sig", newline="") as text:
        text.buffer.seek(start)
        reader = csv.reader(islice(text, lines))
        if not start:
            header = next(reader, None)
            if not header or all(c.strip() == "" for c in header):
                raise ParseError(f"{path}: missing header")
            names = [c.strip() for c in header]
            dupes = sorted({n for n in names if names.count(n) > 1})
            if dupes:
                raise SchemaError(f"{path}: duplicate header names: {dupes}")
            yield names
            width = len(names)
        for row in filter(None, reader):
            if len(row) != width:
                raise ParseError(f"{path}: line {line0 + reader.line_num}: expected {width} cells, got {len(row)}")
            yield row


def schedulable_cpus() -> int:
    """The CPUs this process may run on: ``os.sched_getaffinity(0)`` where it exists, else 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@contextmanager
def forked(func, *iterables):
    """``map(func, *iterables)`` made in a forked child up to the first call that raises. Yields an iterator that
    reads the results from a pipe at its first ``next`` and raises that exception in its place."""
    def unpickled(pipe):
        for item in pickle.load(pipe):
            if isinstance(item, BaseException):
                raise item
            yield item
    r, w = os.pipe()
    if (pid := os.fork()) == 0:
        try:  # a child never returns into the caller, nor flushes its buffers
            results = []
            try:
                for result in map(func, *iterables):
                    results.append(result)
            except BaseException as exc:
                results.append(exc)
            with open(w, "wb") as pipe:
                pickle.dump(results, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(w)
    try:  # the child is killed and reaped on every path
        with open(r, "rb") as pipe:
            yield unpickled(pipe)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _byte_ranges(path) -> tuple[int, list]:
    """A bound on the rows (the lines, a carriage return counted as a line end too), and [start byte,
    line count (None: to EOF), lines before] of each range to parse, cut after newlines, at most one
    per CPU and ``MIN_RANGE_BYTES``; one if the CPU count is unknown, a field may span lines (a
    quote) or lines would count differently (a lone carriage return)."""
    size = os.path.getsize(path)
    parts = min(schedulable_cpus(), size // MIN_RANGE_BYTES)
    ranges, lines, returns = [[0, None, 0]], 0, 0
    with open(path, "rb") as fh:
        while block := fh.read(min(MIN_RANGE_BYTES >> 4, size)) + fh.readline():
            returns += (r := block.count(b"\r"))
            if b'"' in block or r and r != block.count(b"\r\n"):
                parts = 1
            if parts > 1 and fh.tell() - len(block) >= size * len(ranges) // parts:  # the block starts a range
                ranges[-1][1] = lines - ranges[-1][2]
                ranges.append([fh.tell() - len(block), None, lines])
            lines += block.count(b"\n")
    return lines + returns + 1, ranges if parts > 1 else [[0, None, 0]]


def load_csv(path) -> RawTable:
    """Read a header-first CSV into raw text cells, preserving row order."""
    rows = _read_rows(path)
    return RawTable(column_names=next(rows), rows=list(rows))


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
    """Column ``c`` as float64 values (NaN where null or text) plus null and
    text masks, by ``_parse_cell``'s rule: one C-level ``float`` pass, or, if a
    cell fails it (an empty or text cell), ``_parse_cell`` on each distinct cell."""
    n = len(rows)
    try:
        values = np.fromiter(map(float, map(itemgetter(c), rows)), dtype=np.float64, count=n)
    except ValueError:  # an empty or text cell somewhere in the chunk: classify each text once
        texts = list(map(itemgetter(c), rows))
        cells = list(map({s: _parse_cell(s) for s in set(texts)}.__getitem__, texts))
        text = np.fromiter((isinstance(v, str) for v in cells), dtype=bool, count=n)
        values = np.fromiter((v if isinstance(v, float) else math.nan for v in cells),
                             dtype=np.float64, count=n)
        return values, np.isnan(values) & ~text, text  # _parse_cell never yields a NaN float
    null = ~np.isfinite(values)
    values[null] = math.nan
    return values, null, np.zeros(n, dtype=bool)


def read_flow_csv(path, drop_columns=None, label_column=DEFAULT_LABEL_COLUMN) -> tuple[FlowTable, int]:
    """``preprocess(load_csv(path))`` and the number of data rows read, holding
    the cell text of at most ``PARSE_CHUNK_ROWS`` rows per range at a time."""
    return _parse_table(lambda n=None: _read_rows(path, 0, n), drop_columns, label_column, *_byte_ranges(path), path)


def preprocess(raw: RawTable, drop_columns=None, label_column: str = DEFAULT_LABEL_COLUMN) -> FlowTable:
    """Drop identifier columns, purge non-finite rows, and label-encode.

    Rows containing a null/empty/NaN/Infinity cell in any retained column are
    removed entirely; remaining categorical columns (and the label) are
    integer-coded by lexicographic order of their distinct values. A row of
    another width than the header raises ``ParseError``.
    """
    for i, row in enumerate(raw.rows, 1):
        if len(row) != len(raw.column_names):
            raise ParseError(f"row {i}: expected {len(raw.column_names)} cells, got {len(row)}")
    return _parse_table(lambda *_: chain([raw.column_names], raw.rows), drop_columns, label_column, raw.row_count)[0]


def _parse_table(read, drop_columns, label_column: str, bound: int, ranges=((0, None, 0),), path=None):
    """``preprocess`` of ``read(line count)``, the header names and the first range's rows, joined in file
    order with the other ``ranges`` of ``path``, each parsed by a forked child; and the row count. Each
    range's rows go to one shared buffer of ``bound`` rows from its first line's index on, then move down."""
    rows = read(ranges[0][1])
    names = next(rows)
    drops = set(DEFAULT_DROP_COLUMNS if drop_columns is None else drop_columns)
    if label_column not in names:
        raise SchemaError(f"label column {label_column!r} not found")
    if label_column in drops:
        raise SchemaError(f"label column {label_column!r} cannot be dropped")
    unknown = sorted(drops - set(names))
    if unknown:
        raise SchemaError(f"drop columns not present: {unknown}")

    col_index = {name: i for i, name in enumerate(names)}
    kept = [c for c in names if c not in drops and c != label_column]
    if not kept:
        raise SchemaError(f"no feature column besides the label column {label_column!r}")
    kept_cols = [col_index[c] for c in kept]
    label_idx = col_index[label_column]

    buffer = np.frombuffer(mmap.mmap(-1, 8 * len(kept) * max(bound, 1)), dtype=np.float64).reshape(-1, len(kept))
    def parse(rows, at):  # a range's keep masks, has-text mask, label codes and texts; its rows go to buffer[at:]
        # A row survives if no retained cell is null; of a chunk's text, only each distinct label outlives it.
        keeps, codes, seen = [], [], {}  # codes index the label texts in first-seen order
        has_text = np.zeros(len(kept), dtype=bool)
        while chunk := list(islice(rows, PARSE_CHUNK_ROWS)):
            values = np.empty((len(chunk), len(kept)), dtype=np.float64)
            is_text = np.empty((len(chunk), len(kept)), dtype=bool)
            keep = ~_parse_column(chunk, label_idx)[1]
            for j, c in enumerate(kept_cols):
                values[:, j], null, is_text[:, j] = _parse_column(chunk, c)
                keep &= ~null
            buffer[at + len(codes):at + len(codes) + np.count_nonzero(keep)] = values[keep]
            keeps.append(keep)
            has_text |= is_text[keep].any(axis=0)
            codes += [seen.setdefault(row[label_idx].strip(), len(seen)) for row in compress(chunk, keep)]
        return keeps, has_text, codes, [*seen]
    with ExitStack() as children:
        lanes = [children.enter_context(forked(parse, [_read_rows(path, start, lines, len(names), line0)], [line0]))
                 for start, lines, line0 in ranges[1:]]
        parts = [parse(rows, 0), *map(next, lanes)]
    keeps, has_text, label_codes, label_texts = zip(*parts)
    kept_rows = np.concatenate([line0 + np.arange(len(part)) for (_, _, line0), part in zip(ranges, label_codes)])
    class_names = sorted(set(chain(*label_texts)))
    if not class_names:
        raise ValueError("empty table after preprocessing")
    _move_rows_down(buffer, kept_rows)
    features = buffer[:len(kept_rows)]

    # A column is numeric iff no surviving cell is categorical text; text
    # columns are coded from the original stripped cell text, read again.
    text_cols = np.flatnonzero(np.any(has_text, axis=0))
    if text_cols.size:
        source_cols = [kept_cols[j] for j in text_cols]
        picked = []
        for row, survives in zip_longest(islice(read(), 1, None), np.concatenate([*chain(*keeps)]).tolist()):
            if row is None or survives is None:
                raise ParseError("input changed between its two reads: the row count differs")
            if survives:
                picked.append([row[c].strip() for c in source_cols])
        for j, column in zip(text_cols, zip(*picked)):
            codes = {v: k for k, v in enumerate(sorted(set(column)))}
            features[:, j] = [codes[v] for v in column]

    encoder = {name: k for k, name in enumerate(class_names)}
    labels = np.concatenate([np.array([encoder[v] for v in texts], dtype=np.int64)[np.asarray(part, dtype=np.int64)]
                             for texts, part in zip(label_texts, label_codes)])

    return FlowTable(feature_names=kept, features=features, labels=labels, class_names=class_names,
                     sample_weights=np.ones(len(labels))), sum(map(len, chain(*keeps)))


def _shuffle(rows, state: int) -> int:
    """Fisher-Yates shuffle of ``rows`` from its last item on splitmix64 draws from ``state``; its end state."""
    for i in range(len(rows) - 1, 0, -1):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        j = ((z ^ (z >> 31)) * (i + 1)) >> 64
        rows[i], rows[j] = rows[j], rows[i]
    return state


def split_rows(table: FlowTable, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Seed-deterministic train/test partition as the ascending train and test row indices; per-class
    when stratified. Integer math, so identical everywhere: the groups (the classes in code order, or
    every row) are shuffled on one splitmix64 generator seeded with ``seed mod 2**64``, by Fisher-Yates
    from the last row, row i swapped with row ``(draw * (i + 1)) >> 64``."""
    state = spec.seed & _MASK64
    groups = ((np.flatnonzero(table.labels == k) for k in range(len(table.class_names)))
              if spec.stratified else [np.arange(table.n_rows)])
    train = np.zeros(table.n_rows, dtype=bool)
    for k, rows in enumerate(groups):
        if spec.stratified and len(rows) == 1:
            raise ValueError(f"class {table.class_names[k]!r} has a single sample; cannot split stratified")
        state = _shuffle(memoryview(rows), state)
        train[rows[:math.ceil(spec.train_fraction * len(rows) - 0.5)]] = True  # rounded, exact halves down
    return np.flatnonzero(train), np.flatnonzero(~train)


def stratified_split(table: FlowTable, spec: SplitSpec) -> tuple[FlowTable, FlowTable]:
    """The train and test halves of ``split_rows``, copied, each in row order."""
    train_rows, test_rows = split_rows(table, spec)
    return table.take(train_rows), table.take(test_rows)


def class_weights(labels, n_classes: int) -> ClassWeights:
    """Inverse-frequency weights: total / (n_classes * count) per class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label outside [0, n_classes)")
    counts = np.bincount(labels, minlength=n_classes)
    absent = np.nonzero(counts == 0)[0]
    if absent.size:
        raise ValueError(f"class index {int(absent[0])} has no samples")
    return ClassWeights(weights=labels.size / (n_classes * counts), class_counts=counts, total=labels.size)


def apply_sample_weights(table: FlowTable, cw: ClassWeights) -> FlowTable:
    """Assign each row the weight of its class."""
    if len(cw.weights) != len(table.class_names):
        raise SchemaError(
            f"weight vector covers {len(cw.weights)} classes, table has {len(table.class_names)}"
        )
    return replace(table, sample_weights=cw.weights[table.labels])


def save_table(table: FlowTable, path, rows=None) -> None:
    """Lossless binary round-trip of ``table.take(rows)``, every row if ``rows`` is None: the bytes
    ``np.savez`` writes to ``path``, each array's rows gathered ``PARSE_CHUNK_ROWS`` at a time."""
    rows = np.arange(table.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    arrays = {name: (getattr(table, name), rows) for name in ("features", "labels", "sample_weights")}
    for name in ("feature_names", "class_names"):
        names = np.array(getattr(table, name), dtype=np.str_)
        arrays[name] = names, np.arange(len(names))
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, (array, picks) in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                header = {"descr": np.lib.format.dtype_to_descr(array.dtype), "fortran_order": False,
                          "shape": (len(picks), *array.shape[1:])}
                np.lib.format.write_array_header_1_0(fh, header)
                for at in range(0, len(picks), PARSE_CHUNK_ROWS):  # a gather is C-ordered, as take's copy is
                    fh.write(array[picks[at:at + PARSE_CHUNK_ROWS]].view(np.uint8).data)


def load_table(path) -> FlowTable:
    with np.load(path, allow_pickle=False) as data:
        return FlowTable(
            feature_names=[str(s) for s in data["feature_names"]],
            features=data["features"],
            labels=data["labels"],
            class_names=[str(s) for s in data["class_names"]],
            sample_weights=data["sample_weights"],
        )
