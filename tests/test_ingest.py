"""Tests for CSV loading, preprocessing, splitting, and class weighting."""

import csv
import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_label_alone_is_refused(self):
        raw = fs.RawTable(column_names=["Stage"], rows=[["a"], ["b"]])
        with pytest.raises(fs.SchemaError, match="no feature column"):
            fs.preprocess(raw, drop_columns=set(), label_column="Stage")

    @pytest.mark.parametrize("row", [["2"], ["2", "b", "3"]])
    def test_row_of_another_width_is_refused(self, row):
        raw = fs.RawTable(column_names=["x", "Stage"], rows=[["1", "a"], row])
        with pytest.raises(fs.ParseError, match=f"row 2: expected 2 cells, got {len(row)}"):
            fs.preprocess(raw, drop_columns=set(), label_column="Stage")

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


def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(ch.upper() if u else ch for ch, u in zip(word, upper)))


# Pieces of cells that float() and str.strip() may read differently: digits,
# signs, exponents and underscores, Arabic-Indic digits, whitespace that float()
# does ("\xa0", "\u3000") and does not ("\x1c") strip, every case of the
# non-finite words, overflow, underflow, hex and the empty cell.
_NONFINITE = st.sampled_from(["inf", "Infinity", "nan"]).flatmap(_any_case)
_PIECES = st.one_of(
    st.sampled_from(list("0123456789+-.eE_") + ["\u0661", "\u0662", "\x1c", "\xa0", "\u3000", " "]),
    _NONFINITE,
    st.sampled_from(["1e999", "1e-400", "0x10", ""]),
)
_ANY_CELL = st.lists(_PIECES, max_size=6).map("".join)
_SPACE = st.sampled_from(["", " ", "\xa0", "\u3000", "\t"])
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.tuples(st.sampled_from(["", "+", "-"]), _NONFINITE).map("".join),
    st.sampled_from(["1_000", "\u0661\u0662", "+.5", "-0.0", "1e999", "-1e999", "1e-400", "-1e-400", "7"]),
)
_NUMERIC_CELL = st.tuples(_SPACE, _NUMBER, _SPACE).map("".join)


class TestParseColumnMatchesParseCell:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_ANY_CELL, max_size=12), st.lists(_NUMERIC_CELL, max_size=12),
                     st.lists(st.one_of(_NUMERIC_CELL, _ANY_CELL), max_size=12)))
    def test_same_bits_null_mask_and_text_mask(self, cells):
        parsed = [fs.ingest._parse_cell(c) for c in cells]
        values, null, text = fs.ingest._parse_column([["x", c] for c in cells], 1)
        expected = np.array([v if isinstance(v, float) else math.nan for v in parsed], dtype=np.float64)
        assert values.tobytes() == expected.tobytes()
        assert null.tolist() == [v is None for v in parsed]
        assert text.tolist() == [isinstance(v, str) for v in parsed]


class TestPreprocessMatchesRowWiseRule:
    CELLS = ["1", " 2.5 ", "-0", "1e3", "10", "9", "x", " y ", "TCP", "", " ", "NaN",
             "inf", "-Infinity", "1e400", "\x1c1", "1_000", "\u0661\u0662", "+.5", "-0.0",
             "1e-400", "iNfInItY", "0x10"]

    def mixed_table(self, seed):
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
        return fs.RawTable(column_names=["n", "late_text", "m1", "m2", "m3", "Stage"], rows=rows)

    @staticmethod
    def assert_matches(table, raw):
        names, features, label_text = _row_wise_preprocess(raw, "Stage")
        assert table.feature_names == names
        assert table.features.tobytes() == features.tobytes()
        assert [table.class_names[k] for k in table.labels] == label_text

    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixed_table(self, seed):
        raw = self.mixed_table(seed)
        self.assert_matches(fs.preprocess(raw, drop_columns=set(), label_column="Stage"), raw)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_mixed_table_in_chunks(self, tmp_path, monkeypatch, seed, chunk_rows):
        raw = self.mixed_table(seed)
        path = tmp_path / "mixed.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([raw.column_names, *raw.rows])
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", chunk_rows)
        table = fs.preprocess(raw, drop_columns=set(), label_column="Stage")
        streamed, rows_in = fs.read_flow_csv(path, drop_columns=set(), label_column="Stage")
        assert rows_in == raw.row_count
        self.assert_matches(table, raw)
        self.assert_matches(streamed, raw)


def _same_table(a, b):
    assert a.feature_names == b.feature_names
    assert a.features.tobytes() == b.features.tobytes()
    assert a.class_names == b.class_names
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.sample_weights.tobytes() == b.sample_weights.tobytes()


class TestReadFlowCsv:
    def test_equals_preprocess_of_load_csv(self, tmp_path):
        path = tmp_path / "flows.csv"
        write_flow_csv(path, {"Benign": 700, "Pivoting": 400, "Recon": 300}, seed=4, dirty_rows=9)
        raw = fs.load_csv(path)
        table, rows_in = fs.read_flow_csv(path)
        _same_table(table, fs.preprocess(raw))
        assert rows_in == raw.row_count == 1409
        assert table.n_rows == 1400

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7])
    def test_text_after_the_first_chunk_codes_its_numeric_looking_cells(
            self, tmp_path, monkeypatch, chunk_rows):
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", chunk_rows)
        cells = ["1.50", "1.5", " 1.5", "2", "2.0", "2", "2", "1.50", "TCP"]
        path = _write(tmp_path / "t.csv", "p,Stage\n" + "".join(f"{c},a\n" for c in cells))
        table, rows_in = fs.read_flow_csv(path, drop_columns=set())
        # codes of the sorted stripped text: 1.5, 1.50, 2, 2.0, TCP
        assert table.features[:, 0].tolist() == [1.0, 0.0, 0.0, 2.0, 3.0, 2.0, 2.0, 1.0, 4.0]
        assert rows_in == len(cells)
        _same_table(fs.preprocess(fs.load_csv(path), drop_columns=set()), table)

    def test_bom_blank_lines_and_dirty_rows_on_chunk_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 2)
        # two-row chunks: [1, Infinity] [NaN, 3] [4, 5] [6]
        lines = ["x,Stage", "1,a", "", "Infinity,b", "NaN,a", "3,b", "", "", "4,", "5,a", "6,b"]
        path = tmp_path / "bom.csv"
        path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))
        table, rows_in = fs.read_flow_csv(path, drop_columns=set())
        assert table.feature_names == ["x"]
        assert table.features[:, 0].tolist() == [1.0, 3.0, 5.0, 6.0]
        assert [table.class_names[k] for k in table.labels] == ["a", "b", "a", "b"]
        assert rows_in == 7
        _same_table(fs.preprocess(fs.load_csv(path), drop_columns=set()), table)

    def test_null_and_text_cells_after_an_all_numeric_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 2)
        # two-row chunks: every column parses as floats in the first; a null in
        # late_null, text in late_text and NaN/Infinity labels come later.
        lines = ["n,late_null,late_text,Stage", "1,2,3,a", "4,5,6,b",
                 "7,,8,a", "9,10,11,NaN", "12,13,TCP,b", "14,15,16,Infinity", "17,18,19,a"]
        path = _write(tmp_path / "late.csv", "\n".join(lines) + "\n")
        table, rows_in = fs.read_flow_csv(path, drop_columns=set())
        assert rows_in == 7
        # late_text is coded by the sorted text of its surviving cells: 19, 3, 6, TCP
        assert table.features.tolist() == [[1, 2, 1], [4, 5, 2], [12, 13, 3], [17, 18, 0]]
        assert [table.class_names[k] for k in table.labels] == ["a", "b", "b", "a"]
        raw = fs.load_csv(path)
        _same_table(fs.preprocess(raw, drop_columns=set()), table)
        TestPreprocessMatchesRowWiseRule.assert_matches(table, raw)

    def test_clean_numeric_columns_skip_the_cell_by_cell_rule(self, tmp_path, monkeypatch):
        # Only the label column, which is text, is classified cell by cell, and
        # each distinct label of a chunk once: 800 Attack rows then 1,200 Benign
        # rows make a chunk of both and a chunk of Benign alone. One range, so
        # that every cell is parsed in this process.
        monkeypatch.setattr(fs.ingest, "MIN_RANGE_BYTES", 1 << 40)
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 1024)
        path = tmp_path / "flows.csv"
        write_flow_csv(path, {"Benign": 1200, "Attack": 800}, seed=6)
        parse_cell = fs.ingest._parse_cell
        calls = []

        def counting(text):
            calls.append(text)
            return parse_cell(text)

        monkeypatch.setattr(fs.ingest, "_parse_cell", counting)
        table, rows_in = fs.read_flow_csv(path)
        assert rows_in == table.n_rows == 2000
        assert len(calls) == 3
        assert sorted(set(calls)) == ["Attack", "Benign"]

    def test_ragged_row_names_the_same_line_as_load_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 2)
        path = _write(tmp_path / "ragged.csv", "x,Stage\n1,a\n\n2,b\n3,a\n\n4\n5,b\n")
        with pytest.raises(fs.ParseError, match="line 7:") as loaded:
            fs.load_csv(path)
        with pytest.raises(fs.ParseError) as streamed:
            fs.read_flow_csv(path, drop_columns=set())
        assert str(streamed.value) == str(loaded.value)

    @pytest.mark.parametrize("text", ["x,Stage\n", "\ufeffx,Stage\n\n\n"], ids=["plain", "bom-blank-lines"])
    def test_header_only_file_is_an_empty_table(self, tmp_path, text):
        path = _write(tmp_path / "h.csv", text)
        with pytest.raises(ValueError, match="empty table after preprocessing"):
            fs.read_flow_csv(path, drop_columns=set())

    @pytest.mark.parametrize("rewritten", ["p,Stage\nTCP,a\n", "p,Stage\nTCP,a\n1,b\n2,b\n"],
                             ids=["fewer-rows", "more-rows"])
    def test_input_changed_between_reads_is_refused(self, tmp_path, monkeypatch, rewritten):
        path = _write(tmp_path / "t.csv", "p,Stage\nTCP,a\n1,b\n")
        read_rows = fs.ingest._read_rows
        calls = []

        def rewriting(p, *span):
            calls.append(p)
            if len(calls) == 2:  # the read of the text column's cells
                _write(path, rewritten)
            return read_rows(p, *span)

        monkeypatch.setattr(fs.ingest, "_read_rows", rewriting)
        with pytest.raises(fs.ParseError, match="changed between its two reads"):
            fs.read_flow_csv(path, drop_columns=set())
        assert len(calls) == 2

    def test_peak_memory_follows_the_table(self, tmp_path):
        # On 5k rows the peak is about 5x the feature matrix; parsing the whole
        # file into text cells first, as load_csv does, costs about 12.5x.
        path = tmp_path / "flows.csv"
        write_flow_csv(path, {"Benign": 3000, "Attack": 2000}, seed=3, dirty_rows=50)
        tracemalloc.start()
        try:
            table, _ = fs.read_flow_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_rows == 5000
        assert peak < 8 * table.features.nbytes


def _lines(n, text_from=None, class_from=None):
    """``n`` rows of p, q, Stage with a dirty row every 7th; p holds text from row
    ``text_from`` on and class c appears from row ``class_from`` on."""
    rows = ["p,q,Stage"]
    for i in range(n):
        p = "TCP" if text_from is not None and i >= text_from else f"{i % 5}.5"
        stage = "c" if class_from is not None and i >= class_from else "ab"[i % 2]
        q = ["NaN", "", "Infinity", " inf"][i // 7 % 4] if i % 7 == 3 else f"{i * 0.25}"
        rows.append(f"{p},{q},{stage}")
    return rows


class TestRangedParse:
    """A file parsed in ranges, forked children parsing all but the first, gives
    the bits of the one-range parse."""

    @staticmethod
    def ranged(monkeypatch, path, cpus):
        monkeypatch.setattr(fs.ingest, "MIN_RANGE_BYTES", 64)
        monkeypatch.setattr(fs.ingest.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return len(fs.ingest._byte_ranges(path)[1]), fs.read_flow_csv(path, drop_columns=set())

    @pytest.mark.parametrize("text, ranges", [
        ("\n".join(_lines(90)) + "\n", [1, 2, 3]),
        ("\n".join(_lines(90, text_from=86)) + "\n", [1, 2, 3]),
        ("\n".join(_lines(90, class_from=87)) + "\n", [1, 2, 3]),
        ("\r\n".join(_lines(90)) + "\r\n", [1, 2, 3]),
        ("\n".join(_lines(90)), [1, 2, 3]),
        ("\n".join(_lines(90)[:50] + ['"1.5",2,a'] + _lines(90)[50:]) + "\n", [1, 1, 1]),
        ("\n".join(_lines(90)[:50]) + "\r" + "\n".join(_lines(90)[50:]) + "\n", [1, 1, 1]),
        # Every range after the first holds only rows with an empty cell, so keeps none.
        ("\n".join(_lines(20) + ["1.5,,a"] * 70) + "\n", [1, 2, 3]),
    ], ids=["dirty-rows", "text-in-last-range", "class-in-last-range", "crlf", "no-final-newline",
            "quote", "lone-cr", "dropped-range"])
    def test_same_table_and_row_count_as_one_range(self, tmp_path, monkeypatch, text, ranges):
        path = tmp_path / "flows.csv"
        path.write_bytes(text.encode("utf-8"))
        results = []
        for cpus, expected in zip([1, 2, 3], ranges):
            count, result = self.ranged(monkeypatch, path, cpus)
            assert count == expected
            results.append(result)
        serial, rows_in = results[0]
        raw = fs.load_csv(path)
        assert rows_in == raw.row_count
        _same_table(serial, fs.preprocess(raw, drop_columns=set()))
        for table, rows in results[1:]:
            _same_table(table, serial)
            assert rows == rows_in

    def test_first_ragged_row_names_the_serial_line_and_no_child_is_left(self, tmp_path, monkeypatch):
        lines = _lines(90)
        lines[50] = "1,2"  # in the second of three ranges
        lines[80] = "3"  # in the third
        path = _write(tmp_path / "ragged.csv", "\n".join(lines) + "\n")
        with pytest.raises(fs.ParseError, match="line 51:") as serial:
            self.ranged(monkeypatch, path, 1)
        with pytest.raises(fs.ParseError) as ranged:
            self.ranged(monkeypatch, path, 3)
        assert str(ranged.value) == str(serial.value)
        starts = [start for start, _, _ in fs.ingest._byte_ranges(path)[1]]
        assert starts[1] < path.read_bytes().index(b"\n1,2\n") < starts[2]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_two_ranges_fork_through_the_helper(self, tmp_path, monkeypatch):
        lines = _lines(90)
        path = _write(tmp_path / "flows.csv", "\n".join(lines) + "\n")
        calls, forked = [], fs.ingest.forked
        monkeypatch.setattr(fs.ingest, "forked", lambda func, *args: calls.append(args[-1]) or forked(func, *args))
        saved = []
        for cpus in (1, 2):
            count, (table, _) = self.ranged(monkeypatch, path, cpus)
            assert (count, calls) == (cpus, [[line0] for _, _, line0 in fs.ingest._byte_ranges(path)[1][1:]])
            fs.save_table(table, tmp_path / f"{cpus}.npz")
            saved.append((tmp_path / f"{cpus}.npz").read_bytes())
        assert saved[0] == saved[1]
        lines[70] = "1,2"  # in the second of two ranges
        _write(path, "\n".join(lines) + "\n")
        with pytest.raises(fs.ParseError, match="line 71:"):
            self.ranged(monkeypatch, path, 2)
        assert len(calls) == 2
        assert fs.ingest._byte_ranges(path)[1][1][0] < path.read_bytes().index(b"\n1,2\n")

    def test_interrupt_in_the_first_range_leaves_no_child(self, tmp_path, monkeypatch):
        path = _write(tmp_path / "flows.csv", "\n".join(_lines(90)) + "\n")
        parent, parse_column = os.getpid(), fs.ingest._parse_column

        def interrupted(rows, c):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return parse_column(rows, c)

        monkeypatch.setattr(fs.ingest, "_parse_column", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self.ranged(monkeypatch, path, 2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestFiniteFeatures:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cell", [(0, 0), (-1, 1), (1, -1)], ids=["first-row", "last-row", "last-column"])
    def test_a_non_finite_cell_is_refused_by_every_constructor(self, cell, value):
        features = np.arange(12, dtype=float).reshape(4, 3)
        bad = features.copy()
        bad[cell] = value
        with pytest.raises(fs.SchemaError, match="non-finite"):
            make_table(bad, [0, 1, 0, 1])
        table = make_table(features, [0, 1, 0, 1])
        table.features[cell] = value  # written after the table was checked
        for derive in (lambda t: t.take([3, 2, 1, 0]), lambda t: t.restrict(["f2", "f1", "f0"]),
                       lambda t: fs.apply_sample_weights(t, fs.class_weights(t.labels, 2))):
            with pytest.raises(fs.SchemaError, match="non-finite"):
                derive(table)

    def test_tables_without_cells_construct(self):
        assert make_table(np.empty((0, 3)), np.empty(0, dtype=np.int64), n_classes=2).n_rows == 0
        assert make_table(np.empty((4, 0)), [0, 1, 0, 1]).n_features == 0


def _table_with_a_two_row_class():
    """41 rows of 3 features with random weights; class 2 has 2 rows."""
    rng = np.random.default_rng(8)
    return make_table(rng.normal(size=(41, 3)), [0] * 25 + [1] * 14 + [2] * 2, weights=rng.uniform(0.5, 2, 41))


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

    @staticmethod
    def assert_savez_bytes(table, tmp_path, *rows):
        """``save_table(table, path, *rows)`` writes the bytes ``np.savez`` writes for ``table.take(*rows)``,
        or for ``table`` itself when no rows are given."""
        fs.save_table(table, tmp_path / "saved.npz", *rows)
        taken = table.take(*rows) if rows else table
        np.savez(tmp_path / "savez.npz", features=taken.features, labels=taken.labels,
                 sample_weights=taken.sample_weights, feature_names=np.array(taken.feature_names, dtype=np.str_),
                 class_names=np.array(taken.class_names, dtype=np.str_))
        assert (tmp_path / "saved.npz").read_bytes() == (tmp_path / "savez.npz").read_bytes()

    def test_bytes_of_a_row_slice_of_a_larger_buffer_are_savez_bytes(self, tmp_path):
        buffer = np.random.default_rng(6).normal(size=(50, 3))
        table = make_table(buffer[:30], np.arange(30) % 3)
        assert table.features.base is buffer
        self.assert_savez_bytes(table, tmp_path)

    def test_bytes_with_non_ascii_names_are_savez_bytes(self, tmp_path):
        table = fs.FlowTable(feature_names=["débit", "Größe", "流量"], features=np.eye(3),
                             labels=[0, 1, 1], class_names=["ürsprung", "Ωmega"], sample_weights=[1.0, 2.0, 0.5])
        self.assert_savez_bytes(table, tmp_path)
        assert fs.load_table(tmp_path / "saved.npz").feature_names == table.feature_names

    @pytest.mark.parametrize("rows", ["all", "train", "test", "unsorted", "none"])
    def test_bytes_of_chosen_rows_are_savez_bytes_of_take(self, tmp_path, monkeypatch, rows):
        # 4-row gathers: the 41 rows, and each half, end partway through a chunk.
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 4)
        table = _table_with_a_two_row_class()
        train, test = fs.split_rows(table, fs.SplitSpec(train_fraction=0.7, seed=3))
        picked = {"all": np.arange(41), "train": train, "test": test, "unsorted": [40, 3, 3, 0, 17, 22],
                  "none": np.array([], dtype=np.int64)}[rows]
        self.assert_savez_bytes(table, tmp_path, picked)

    @pytest.mark.parametrize("rows", [[1], [40, 2, 7, 0], list(range(41))])
    def test_bytes_of_rows_of_an_f_ordered_table_are_savez_bytes_of_take(self, tmp_path, monkeypatch, rows):
        monkeypatch.setattr(fs.ingest, "PARSE_CHUNK_ROWS", 4)
        table = _table_with_a_two_row_class().restrict(["f2", "f0"])
        assert table.features.flags.f_contiguous and not table.features.flags.c_contiguous
        self.assert_savez_bytes(table, tmp_path, rows)

    def test_saving_half_the_rows_allocates_well_under_the_table(self, tmp_path):
        # A gather of the whole half would allocate features.nbytes / 2; 256-row chunks of 77 features
        # allocate about 160 kB at a time.
        table = make_table(np.random.default_rng(9).normal(size=(5000, 77)), np.arange(5000) % 3)
        rows = np.arange(0, 5000, 2)
        tracemalloc.start()
        try:
            fs.save_table(table, tmp_path / "half.npz", rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.features.nbytes / 8
        back = fs.load_table(tmp_path / "half.npz")
        assert np.array_equal(back.features, table.features[rows])


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
        # Exact test rows of each branch, pinned so a rewrite keeps the
        # partition (the shuffles draw in class order, then cut each group).
        for stratified, test_ids in [
            (True, [0, 3, 4, 6, 7, 9, 16, 19, 21, 23, 27, 28, 29, 32, 36]),
            (False, [0, 2, 3, 7, 9, 11, 14, 19, 20, 22, 24, 31, 32, 33, 36]),
        ]:
            spec = fs.SplitSpec(train_fraction=0.6, seed=7, stratified=stratified)
            train, test = fs.stratified_split(table, spec)
            combined = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
            assert combined == ids[:, 0].tolist()
            assert test.features[:, 0].tolist() == test_ids
            assert np.array_equal(test.labels, labels[test_ids])

    @pytest.mark.parametrize("stratified, seed, digest", [
        (True, -1, "79083e9410c5c92dbdbd83fe655444fdaa9f36589f8f2df433e01c21421e31f4"),
        (True, 2**64 + 7, "c9cf880f8f8e113c0588fc368bab22380e43cf7f702f3e6df1920ac356d20271"),
        (False, -1, "3220b40a3e34f9fb245a1f889d1c66a8ea6aed62841b784d4a7a4c1e3cd09777"),
        (False, 2**64 + 7, "6795407e815ca2aed6cbdc8decb8d588deba24e68266318af8fc7b07cab233c6"),
    ], ids=["stratified-seed-minus-1", "stratified-seed-2**64+7", "unstratified-seed-minus-1",
            "unstratified-seed-2**64+7"])
    def test_large_partition_pinned_for_seeds_outside_64_bits(self, stratified, seed, digest):
        # 5,000 rows reach large indices in the multiply-shift reduction, and
        # both seeds are folded mod 2**64; the digests pin the partition.
        labels = np.arange(5000) * 7 % 13 % 6
        table = make_table(np.zeros((5000, 1)), labels)
        train, test = fs.split_rows(table, fs.SplitSpec(train_fraction=0.8, seed=seed, stratified=stratified))
        assert hashlib.sha256(np.concatenate([train, test]).astype("<i8").tobytes()).hexdigest() == digest

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

    @pytest.mark.parametrize("stratified", [True, False])
    def test_split_rows_ascend_and_partition_every_row(self, stratified):
        table = _table_with_a_two_row_class()
        train, test = fs.split_rows(table, fs.SplitSpec(train_fraction=0.7, seed=3, stratified=stratified))
        assert train.dtype == test.dtype == np.int64
        assert (np.diff(train) > 0).all() and (np.diff(test) > 0).all()
        assert not np.intersect1d(train, test).size
        assert np.array_equal(np.union1d(train, test), np.arange(41))
        if stratified:  # round(0.7 * count), halves down, per class: the 2-row class gives one row to each
            assert np.bincount(table.labels[train]).tolist() == [17, 10, 1]

    @pytest.mark.parametrize("stratified", [True, False])
    def test_halves_are_take_of_the_split_rows_bit_for_bit(self, stratified):
        table = _table_with_a_two_row_class()
        before = [a.copy() for a in (table.features, table.labels, table.sample_weights)]
        spec = fs.SplitSpec(train_fraction=0.7, seed=3, stratified=stratified)
        halves = fs.stratified_split(table, spec)
        for a, b in zip((table.features, table.labels, table.sample_weights), before):
            assert a.tobytes() == b.tobytes()  # the input is left as it was
        for half, rows in zip(halves, fs.split_rows(table, spec)):
            taken = table.take(rows)
            assert not np.shares_memory(half.features, table.features)
            for name in ("features", "labels", "sample_weights"):
                assert getattr(half, name).tobytes() == getattr(taken, name).tobytes()


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
