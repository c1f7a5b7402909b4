"""Tests for CSV loading, preprocessing, splitting, and class weighting."""

import math

import numpy as np
import pytest

import flowshap as fs
from flowshap.ingest import DEFAULT_DROP_COLUMNS

from conftest import SCVIC_TOTAL_COUNTS, SCVIC_TRAIN_COUNTS, make_table, write_flow_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_scvic_shaped_header(self, tmp_path):
        header = ",".join(f"col{i}" for i in range(84))
        row = ",".join(str(i) for i in range(84))
        path = _write(tmp_path / "a.csv", header + "\n" + "\n".join([row] * 3) + "\n")
        raw = fs.load_csv(path)
        assert len(raw.column_names) == 84
        assert raw.row_count == 3

    def test_empty_file_missing_header(self, tmp_path):
        path = _write(tmp_path / "empty.csv", "")
        with pytest.raises(fs.ParseError, match="missing header"):
            fs.load_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        header = ",".join(f"col{i}" for i in range(84))
        good = ",".join(["1"] * 84)
        bad = ",".join(["1"] * 83)
        path = _write(tmp_path / "ragged.csv", "\n".join([header, good, bad]) + "\n")
        with pytest.raises(fs.ParseError, match="line 3"):
            fs.load_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = _write(tmp_path / "dup.csv", "a,b,a\n1,2,3\n")
        with pytest.raises(fs.SchemaError, match="duplicate"):
            fs.load_csv(path)

    def test_preserves_cell_text_and_order(self, tmp_path):
        path = _write(tmp_path / "t.csv", "a,b\nx, 1.5\ny,2\n")
        raw = fs.load_csv(path)
        assert raw.rows == [["x", " 1.5"], ["y", "2"]]


class TestPreprocess:
    def test_default_drops_leave_77_features(self, tmp_path):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 5, "Attack": 5})
        raw = fs.load_csv(tmp_path / "flows.csv")
        table = fs.preprocess(raw)
        assert table.n_features == 77
        assert len(raw.column_names) - len(DEFAULT_DROP_COLUMNS) - 1 == 77
        assert not any(c in table.feature_names for c in DEFAULT_DROP_COLUMNS)

    def test_nonfinite_rows_removed(self):
        raw = fs.RawTable(
            column_names=["Flow Bytes/s", "Stage"],
            rows=[["1.0", "a"], ["Infinity", "a"], ["2.0", "b"], ["nan", "b"], ["", "b"], ["3.0", "b"]],
        )
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        assert table.n_rows == 3
        assert np.isfinite(table.features).all()

    def test_lexicographic_label_encoding(self):
        raw = fs.RawTable(
            column_names=["x", "Stage"],
            rows=[["1", "Normal Traffic"], ["2", "Pivoting"], ["3", "Data Exfiltration"]],
        )
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        assert table.class_names == ["Data Exfiltration", "Normal Traffic", "Pivoting"]
        assert table.labels.tolist() == [1, 2, 0]

    def test_label_round_trip(self):
        raw = fs.RawTable(
            column_names=["x", "Stage"],
            rows=[["1", "b"], ["2", "a"], ["3", "b"], ["4", "c"]],
        )
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        decoded = [table.class_names[k] for k in table.labels]
        assert decoded == ["b", "a", "b", "c"]

    def test_categorical_feature_lexicographic_codes(self):
        raw = fs.RawTable(
            column_names=["Protocol", "Stage"],
            rows=[["TCP", "a"], ["UDP", "a"], ["ICMP", "b"], ["TCP", "b"]],
        )
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        # ICMP=0, TCP=1, UDP=2
        assert table.features[:, 0].tolist() == [1.0, 2.0, 0.0, 1.0]

    def test_missing_label_column(self):
        raw = fs.RawTable(column_names=["x"], rows=[["1"]])
        with pytest.raises(fs.SchemaError, match="label column"):
            fs.preprocess(raw, drop_columns=set(), label_column="Stage")

    def test_unknown_drop_column(self):
        raw = fs.RawTable(column_names=["x", "Stage"], rows=[["1", "a"]])
        with pytest.raises(fs.SchemaError, match="not present"):
            fs.preprocess(raw, drop_columns={"nope"}, label_column="Stage")

    def test_all_rows_removed(self):
        raw = fs.RawTable(
            column_names=["x", "Stage"],
            rows=[["NaN", "a"], ["Infinity", "a"]],
        )
        with pytest.raises(ValueError, match="empty table after preprocessing"):
            fs.preprocess(raw, drop_columns=set(), label_column="Stage")

    def test_unit_sample_weights(self):
        raw = fs.RawTable(column_names=["x", "Stage"], rows=[["1", "a"], ["2", "b"]])
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        assert (table.sample_weights == 1.0).all()


def _row_wise_preprocess(raw, label_column):
    """The cleaning rule cell by cell, row by row: the reference for ``preprocess``."""
    parse = fs.ingest._parse_cell
    kept = [c for c in raw.column_names if c != label_column]
    cols = [raw.column_names.index(c) for c in kept]
    label = raw.column_names.index(label_column)
    rows = [r for r in raw.rows if all(parse(r[i]) is not None for i in cols + [label])]
    columns = []
    for i in cols:
        cells = [r[i].strip() for r in rows]
        if any(isinstance(parse(c), str) for c in cells):
            codes = {v: k for k, v in enumerate(sorted(set(cells)))}
            columns.append([float(codes[c]) for c in cells])
        else:
            columns.append([parse(c) for c in cells])
    return kept, np.array(columns).T.reshape(len(rows), len(kept)), [r[label].strip() for r in rows]


class TestPreprocessMatchesRowWiseRule:
    CELLS = ["1", " 2.5 ", "-0", "1e3", "10", "9", "x", " y ", "TCP", "", " ", "NaN",
             "inf", "-Infinity", "1e400", "\x1c1"]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixed_table(self, seed):
        rng = np.random.default_rng(seed)
        # Column 0 is numeric, column 1 has text only where another cell is null,
        # the others draw from every kind of cell.
        rows = []
        for _ in range(300):
            row = [rng.choice(self.CELLS[:6]), "t" if rng.random() < 0.1 else "3"]
            row += [str(rng.choice(self.CELLS)) for _ in range(3)]
            row.append(str(rng.choice(["b", " a", "c", "NaN", "1"])))
            if row[1] == "t":
                row[0] = ""
            rows.append([str(c) for c in row])
        raw = fs.RawTable(column_names=["n", "late_text", "m1", "m2", "m3", "Stage"], rows=rows)
        names, features, label_text = _row_wise_preprocess(raw, "Stage")
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        assert table.feature_names == names
        assert table.features.tobytes() == features.tobytes()
        assert [table.class_names[k] for k in table.labels] == label_text

class TestSaveLoadTable:
    def test_lossless_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        table = make_table(rng.normal(size=(20, 4)) * 1e12, rng.integers(0, 3, 20), n_classes=3)
        path = tmp_path / "t.npz"
        fs.save_table(table, path)
        back = fs.load_table(path)
        assert back.feature_names == table.feature_names
        assert back.class_names == table.class_names
        assert np.array_equal(back.features, table.features)
        assert np.array_equal(back.labels, table.labels)
        assert np.array_equal(back.sample_weights, table.sample_weights)


class TestStratifiedSplit:
    def test_exact_proportion_balanced(self):
        table = make_table(np.arange(10, dtype=float).reshape(10, 1), [0] * 5 + [1] * 5)
        train, test = fs.stratified_split(table, fs.SplitSpec(train_fraction=0.8, seed=1))
        assert train.n_rows == 8 and test.n_rows == 2
        assert np.bincount(train.labels).tolist() == [4, 4]
        assert np.bincount(test.labels).tolist() == [1, 1]

    def test_deterministic(self):
        table = make_table(np.random.default_rng(0).normal(size=(40, 2)), [0, 1] * 20)
        spec = fs.SplitSpec(train_fraction=0.7, seed=99)
        a_train, a_test = fs.stratified_split(table, spec)
        b_train, b_test = fs.stratified_split(table, spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_partition_no_loss_no_duplication(self):
        ids = np.arange(37, dtype=float).reshape(37, 1)
        labels = np.array([0] * 20 + [1] * 12 + [2] * 5)
        table = make_table(ids, labels)
        train, test = fs.stratified_split(table, fs.SplitSpec(train_fraction=0.6, seed=7))
        combined = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
        assert combined == ids[:, 0].tolist()

    def test_benchmark_proportions(self):
        # The expected per-class train counts follow from the stated rounding
        # rule (round, halves down) applied to 0.8 * count.
        names = sorted(SCVIC_TOTAL_COUNTS)
        counts = [SCVIC_TOTAL_COUNTS[n] for n in names]
        labels = np.repeat(np.arange(len(names)), counts)
        table = make_table(np.zeros((len(labels), 1)), labels, n_classes=len(names))
        train, _ = fs.stratified_split(table, fs.SplitSpec(train_fraction=0.8, seed=123))
        got = np.bincount(train.labels, minlength=len(names))
        for k, count in enumerate(counts):
            expected = math.ceil(0.8 * count - 0.5)
            assert got[k] == expected
            assert abs(got[k] - 0.8 * count) <= 1

    def test_singleton_class_error_names_class(self):
        table = make_table(np.zeros((3, 1)), [0, 0, 1])
        with pytest.raises(ValueError, match="c1"):
            fs.stratified_split(table, fs.SplitSpec(train_fraction=0.5, seed=0))

    def test_unstratified_split(self):
        table = make_table(np.arange(10, dtype=float).reshape(10, 1), [0] * 5 + [1] * 5)
        train, test = fs.stratified_split(
            table, fs.SplitSpec(train_fraction=0.8, seed=4, stratified=False)
        )
        assert train.n_rows == 8 and test.n_rows == 2

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            fs.SplitSpec(train_fraction=1.0)


class TestClassWeights:
    def test_benchmark_training_histogram(self):
        names = sorted(SCVIC_TRAIN_COUNTS)
        counts = [SCVIC_TRAIN_COUNTS[n] for n in names]
        labels = np.repeat(np.arange(6), counts)
        cw = fs.class_weights(labels, 6)
        total = sum(counts)
        assert cw.total == total == 250402
        # independent arithmetic for two spot classes
        i_normal = names.index("Normal Traffic")
        i_ic = names.index("Initial Compromise")
        assert cw.weights[i_normal] == total / (6 * 246253)
        assert cw.weights[i_ic] == total / (6 * 120)
        assert cw.weights[i_normal] == pytest.approx(0.16947475428387335, rel=1e-12)
        assert cw.weights[i_ic] == pytest.approx(347.78055555555557, rel=1e-12)
        # weighted counts sum back to the total
        recovered = float((cw.class_counts * cw.weights).sum())
        assert recovered == pytest.approx(total, rel=1e-9)

    def test_balanced_two_class(self):
        cw = fs.class_weights([0] * 50 + [1] * 50, 2)
        assert cw.weights.tolist() == [1.0, 1.0]

    def test_single_class(self):
        cw = fs.class_weights([0] * 10, 1)
        assert cw.weights.tolist() == [1.0]

    def test_absent_class_error(self):
        with pytest.raises(ValueError, match="class index 2"):
            fs.class_weights([0, 1, 1], 3)


class TestApplySampleWeights:
    def test_uniform_assignment(self):
        table = make_table(np.zeros((4, 1)), [0, 0, 0, 0], n_classes=1)
        cw = fs.ClassWeights(weights=np.array([2.5]), class_counts=np.array([4]), total=4)
        out = fs.apply_sample_weights(table, cw)
        assert (out.sample_weights == 2.5).all()

    def test_balanced_identity(self):
        table = make_table(np.zeros((6, 1)), [0, 1, 0, 1, 0, 1])
        out = fs.apply_sample_weights(table, fs.class_weights(table.labels, 2))
        assert np.array_equal(out.sample_weights, table.sample_weights)

    def test_weights_sum_to_row_count_on_benchmark_histogram(self):
        names = sorted(SCVIC_TRAIN_COUNTS)
        counts = [SCVIC_TRAIN_COUNTS[n] for n in names]
        labels = np.repeat(np.arange(6), counts)
        table = make_table(np.zeros((len(labels), 1)), labels, n_classes=6)
        out = fs.apply_sample_weights(table, fs.class_weights(labels, 6))
        assert float(out.sample_weights.sum()) == pytest.approx(len(labels), rel=1e-6)

    def test_class_count_mismatch(self):
        table = make_table(np.zeros((2, 1)), [0, 1])
        cw = fs.ClassWeights(weights=np.ones(3), class_counts=np.ones(3, dtype=int), total=3)
        with pytest.raises(fs.SchemaError):
            fs.apply_sample_weights(table, cw)
