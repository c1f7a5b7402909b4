"""End-to-end tests of the pipeline subcommands and their artifacts."""

import configparser
import csv
import io
import json
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flowshap as fs
from flowshap import cli, gbt
from flowshap.config import RunConfig, load_config_file, write_config_file

from conftest import replay_forward_trace, write_flow_csv


@pytest.fixture
def prepared(tmp_path):
    """A prepared run directory over a synthetic flow CSV."""
    csv_path = tmp_path / "flows.csv"
    write_flow_csv(csv_path, {"Benign": 60, "Pivoting": 30, "Recon": 30}, seed=1)
    cfg = RunConfig(
        input_csv=str(csv_path),
        output_dir=str(tmp_path / "out"),
        seed=7,
        n_estimators=4,
        max_depth=3,
        max_candidates=6,
    )
    report = cli.cmd_prepare(cfg)
    return cfg, report, tmp_path


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def stop(*args, **kwargs):
    """Stand-in for the call a stage makes next: the stage is interrupted there."""
    raise KeyboardInterrupt


def assert_same_artifacts(out, ref):
    """Same file names; same bytes, but for the config record (it names its
    directory) and the reports that hold wall-clock timings."""
    names = sorted(path.name for path in Path(out).iterdir())
    assert names == sorted(path.name for path in Path(ref).iterdir())
    for name in names:
        if name not in (cli.EFFECTIVE_CONFIG, cli.TRAIN_REPORT, cli.SELECT_REPORT):
            assert (Path(out) / name).read_bytes() == (Path(ref) / name).read_bytes(), name


class TestPrepare:
    def test_features_kept_is_77(self, prepared):
        _, report, _ = prepared
        assert report["features_kept"] == 77

    def test_clean_csv_drops_nothing(self, prepared):
        _, report, _ = prepared
        assert report["rows_dropped"] == 0
        assert report["rows_in"] == 120

    def test_dirty_rows_are_dropped(self, tmp_path):
        csv_path = tmp_path / "dirty.csv"
        write_flow_csv(csv_path, {"Benign": 20, "Attack": 20}, seed=2, dirty_rows=5)
        cfg = RunConfig(input_csv=str(csv_path), output_dir=str(tmp_path / "out"), seed=1)
        report = cli.cmd_prepare(cfg)
        assert report["rows_in"] == 45
        assert report["rows_dropped"] == 5

    def test_class_weights_match_emitted_histogram(self, prepared):
        _, report, _ = prepared
        hist = report["class_histogram"]
        weights = report["class_weights"]
        total = sum(hist.values())
        K = len(hist)
        for name, count in hist.items():
            assert weights[name] == pytest.approx(total / (K * count), rel=1e-12)

    def test_tables_written(self, prepared):
        cfg, report, _ = prepared
        train = fs.load_table(f"{cfg.output_dir}/{cli.TRAIN_TABLE}")
        test = fs.load_table(f"{cfg.output_dir}/{cli.TEST_TABLE}")
        assert train.n_rows == report["train_rows"]
        assert test.n_rows == report["test_rows"]
        assert train.n_features == 77

    def test_missing_input_fails(self, tmp_path):
        cfg = RunConfig(input_csv=str(tmp_path / "absent.csv"), output_dir=str(tmp_path / "o"))
        with pytest.raises(OSError):
            cli.cmd_prepare(cfg)

    def test_table_without_a_feature_column_is_refused(self, tmp_path, capsys):
        (tmp_path / "flows.csv").write_text("Stage\na\nb\na\nb\n", encoding="utf-8")
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\ninput_csv = {tmp_path / 'flows.csv'}\noutput_dir = {tmp_path / 'out'}\n"
                          "drop_columns =\n", encoding="utf-8")
        assert cli.main(["prepare", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "SchemaError"
        assert not list((tmp_path / "out").glob("*_table.npz"))


class TestTrain:
    def test_model_and_report_written(self, prepared):
        cfg, _, _ = prepared
        report = cli.cmd_train(cfg)
        assert (report.accuracy, report.macro.f1) == (1.0, 1.0)  # separable synthetic signal
        doc = read_json(f"{cfg.output_dir}/{cli.TRAIN_REPORT}")
        assert doc["accuracy"] == 1.0
        assert doc["timing"]["train_seconds"] > 0

    def test_rerun_is_byte_identical(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        first = Path(f"{cfg.output_dir}/{cli.MODEL_FILE}").read_bytes()
        cli.cmd_train(cfg)
        second = Path(f"{cfg.output_dir}/{cli.MODEL_FILE}").read_bytes()
        assert first == second

    def test_model_with_a_non_finite_leaf_is_refused_before_any_file(self, prepared, monkeypatch, capsys):
        cfg, _, _ = prepared
        train, leaves = gbt.train, []

        def train_an_infinite_leaf(table, hp):
            ens = train(table, hp)
            leaves.append(int(np.flatnonzero(ens.trees[0].feature < 0)[0]))
            ens.trees[0].value[leaves[0]] = np.inf
            return ens

        monkeypatch.setattr(gbt, "train", train_an_infinite_leaf)
        out = Path(cfg.output_dir)
        assert cli.main(["train", "--config", str(out / cli.EFFECTIVE_CONFIG)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == "ValueError"
        assert json.loads(err)["message"].startswith(f"tree 0 node {leaves[0]}: value is inf;")
        assert not (out / cli.MODEL_FILE).exists() and not (out / cli.TRAIN_REPORT).exists()

    def test_zero_rounds_report_well_formed(self, prepared):
        cfg, _, _ = prepared
        report = cli.cmd_train(replace(cfg, n_estimators=0))
        doc = read_json(f"{cfg.output_dir}/{cli.TRAIN_REPORT}")
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert len(doc["per_class"]) == 3
        assert len(fs.load_model(f"{cfg.output_dir}/{cli.MODEL_FILE}").trees) == 0


class TestExplain:
    def test_exports_and_additivity(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        shap = cli.cmd_explain(cfg)
        out = cfg.output_dir
        ens = fs.load_model(f"{out}/{cli.MODEL_FILE}")
        test = fs.load_table(f"{out}/{cli.TEST_TABLE}")

        # reconstruct margins from the exported files alone
        sums = {}
        with open(f"{out}/{cli.SHAP_VALUES}", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (int(row["sample_index"]), row["class"])
                sums[key] = sums.get(key, 0.0) + float(row["phi"])
        bases = read_json(f"{out}/{cli.SHAP_BASES}")["base_values"]
        margins = fs.predict_margins(ens, test.features)
        for (s, cname), phi_sum in sums.items():
            k = ens.class_names.index(cname)
            assert phi_sum + bases[cname] == pytest.approx(margins[s, k], abs=1e-6)

    def test_per_class_ranking_files(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        ens = fs.load_model(f"{cfg.output_dir}/{cli.MODEL_FILE}")
        for k, name in enumerate(ens.class_names):
            path = f"{cfg.output_dir}/{cli._class_ranking_file(k, name)}"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 77

    @pytest.mark.parametrize("rows", ["test", "train"])
    def test_loads_only_the_table_it_attributes(self, prepared, monkeypatch, rows):
        cfg = replace(prepared[0], explain_rows=rows)
        cli.cmd_train(cfg)
        loaded, load_table = [], cli.ingest.load_table
        monkeypatch.setattr(cli.ingest, "load_table", lambda path: loaded.append(Path(path).name) or load_table(path))
        shap = cli.cmd_explain(cfg)
        table = cli.TEST_TABLE if rows == "test" else cli.TRAIN_TABLE
        assert loaded == [table]
        assert len(shap.values) == len(load_table(Path(cfg.output_dir) / table).labels)

    def test_global_ranking_matches_export_recomputation(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        out = cfg.output_dir
        # aggregate straight from the long-form export
        totals = {}
        counts = set()
        by_class_feature = {}
        with open(f"{out}/{cli.SHAP_VALUES}", newline="") as fh:
            for row in csv.DictReader(fh):
                key = (row["class"], row["feature"])
                by_class_feature.setdefault(key, []).append(abs(float(row["phi"])))
                counts.add(int(row["sample_index"]))
        for (cname, feature), vals in by_class_feature.items():
            totals[feature] = totals.get(feature, 0.0) + sum(vals) / len(counts)
        expected = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        with open(f"{out}/{cli.GLOBAL_RANKING}", newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [r["feature"] for r in got] == [name for name, _ in expected]
        for row, (_, score) in zip(got, expected):
            assert float(row["score"]) == pytest.approx(score, rel=1e-9)


class TestSelect:
    def test_filter_with_all_features_equals_train_report(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cfg_all = replace(cfg, method="correlation", k_for_filters=77)
        cli.cmd_select(cfg_all)
        train_doc = read_json(f"{cfg.output_dir}/{cli.TRAIN_REPORT}")
        select_doc = read_json(f"{cfg.output_dir}/{cli.SELECT_REPORT}")
        for field in ("accuracy", "per_class", "macro", "weighted"):
            assert train_doc[field] == select_doc[field]

    def test_shap_selection_trace_replays(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        cli.cmd_select(cfg)
        doc = read_json(f"{cfg.output_dir}/{cli._selection_file('shap')}")
        assert doc["method"] == "shap"
        trace = [fs.Trial(t["feature"], t["f1"], t["accepted"]) for t in doc["trace"]]
        replay_selected, replay_best = replay_forward_trace(trace)
        assert replay_selected == doc["selected"]
        assert replay_best == pytest.approx(doc["f1_best"])

    def test_selected_model_uses_selected_features(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        cli.cmd_select(cfg)
        doc = read_json(f"{cfg.output_dir}/{cli._selection_file('shap')}")
        model = fs.load_model(f"{cfg.output_dir}/{cli.SELECTED_MODEL}")
        assert model.feature_names == doc["selected"]

    def test_paper_faithful_scope(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        cfg_test_scope = replace(cfg, evaluation_scope="test")
        cli.cmd_select(cfg_test_scope)
        doc = read_json(f"{cfg.output_dir}/{cli._selection_file('shap')}")
        assert doc["evaluation_scope"] == "test"

    def test_test_scope_reuses_the_pass_fit(self, prepared, monkeypatch):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        calls = []

        def counted_train(*args, **kwargs):
            calls.append(args)
            return fs.train(*args, **kwargs)

        monkeypatch.setattr(gbt, "train", counted_train)
        cli.cmd_select(replace(cfg, evaluation_scope="test"))
        doc = read_json(f"{cfg.output_dir}/{cli._selection_file('shap')}")
        assert doc["selected"]
        assert len(calls) == len(doc["trace"])
        # the reduced model is the one a fresh class-weighted fit on the selection gives
        train_t = fs.load_table(f"{cfg.output_dir}/{cli.TRAIN_TABLE}").restrict(doc["selected"])
        weighted = fs.apply_sample_weights(train_t, fs.class_weights(train_t.labels, len(train_t.class_names)))
        expected = fs.serialize(fs.train(weighted, cfg.hyperparams()))
        assert Path(f"{cfg.output_dir}/{cli.SELECTED_MODEL}").read_bytes() == expected

    def test_shap_ranking_without_explain_selects_as_after_explain(self, tmp_path):
        # Without a completed explain, select runs explain first and reads its ranking.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        config = TestPipeline.write_config(tmp_path, "a.ini", TestPipeline.HYPER)
        runs = {"direct": ("prepare", "train", "select"), "explained": ("prepare", "train", "explain", "select")}
        for name, stages in runs.items():
            for stage in stages:
                assert cli.main([stage, "--config", str(config), "--output-dir", str(tmp_path / name)]) == 0
        direct, explained = tmp_path / "direct", tmp_path / "explained"
        class_rankings = sorted(path.name for path in explained.glob("importance_class_*.csv"))
        assert len(class_rankings) == 3
        for name in (cli.SHAP_VALUES, cli.GLOBAL_RANKING, *class_rankings, cli.SHAP_BASES,
                     cli._selection_file("shap"), cli.SELECTED_MODEL):
            assert (direct / name).read_bytes() == (explained / name).read_bytes(), name

    def test_k_above_the_feature_count_fails_before_any_selection(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = [f"{float(rng.normal() + 3 * (i % 2))!r},{float(rng.normal())!r},{'ab'[i % 2]}" for i in range(40)]
        (tmp_path / "flows.csv").write_text("\n".join(["x,y,Stage", *rows, ""]), encoding="utf-8")
        out = tmp_path / "out"
        config = tmp_path / "a.ini"
        config.write_text(f"[run]\ninput_csv = {tmp_path / 'flows.csv'}\noutput_dir = {out}\ndrop_columns =\n"
                          f"{TestPipeline.HYPER}[selection]\nmax_candidates = 3\n", encoding="utf-8")
        assert cli.main(["pipeline", "--config", str(config), "--compare"]) == 1
        assert "k_for_filters = 12 exceeds the 2 features" in json.loads(capsys.readouterr().err)["message"]
        assert not list(out.glob("selection_*.json"))
        assert cli.main(["select", "--config", str(config), "--method", "shap"]) == 0
        assert cli.main(["select", "--config", str(config), "--compare", "--k", "2"]) == 0

    def test_compare_writes_table(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        cli.cmd_select(replace(cfg, k_for_filters=5), compare=True)
        with open(f"{cfg.output_dir}/{cli.COMPARISON}", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["shap", "correlation", "chi_square", "anova"]
        for row in rows:
            assert 0.0 <= float(row["macro_f1"]) <= 1.0
            assert row["features"]
        # The scores are repr'd Python floats; a numpy scalar's repr names its type.
        assert "np.float64(" not in Path(cfg.output_dir, cli.COMPARISON).read_text(encoding="utf-8")


class TestForkedCompare:
    """With two CPUs, ``select --compare`` fits the filter methods in a forked child beside the
    forward pass; with one, or one method, it forks nothing. Either way the bytes are the serial ones."""

    @staticmethod
    def cpus(monkeypatch, count):
        """Make ``count`` CPUs schedulable and return the list of ``os.fork`` calls made from here on."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        return forks

    @staticmethod
    def explained(prepared):
        cfg, _, tmp_path = prepared
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        return cfg, Path(cfg.output_dir), tmp_path

    def test_select_files_do_not_depend_on_the_cpu_count(self, prepared, monkeypatch):
        cfg, out, tmp_path = self.explained(prepared)
        runs = {}
        for count, fork_calls in ((1, 0), (2, 1)):
            run = tmp_path / f"cpus-{count}"
            shutil.copytree(out, run)
            forks = self.cpus(monkeypatch, count)
            cli.cmd_select(replace(cfg, output_dir=str(run), k_for_filters=5), compare=True)
            assert len(forks) == fork_calls
            report = read_json(run / cli.SELECT_REPORT)
            report.pop("timing")
            runs[count] = report, {name: (run / name).read_bytes() for name in
                                   [*map(cli._selection_file, cli.SELECTION_METHODS), cli.COMPARISON, cli.SELECTED_MODEL]}
        assert runs[1] == runs[2]

    def test_one_cpu_or_one_method_never_forks(self, prepared, monkeypatch):
        cfg, _, _ = self.explained(prepared)
        forks = self.cpus(monkeypatch, 1)
        cli.cmd_select(cfg, compare=True)
        assert forks == []
        forks = self.cpus(monkeypatch, 2)
        cli.cmd_select(cfg)
        cli.cmd_select(replace(cfg, method="anova"))
        assert forks == []

    def test_a_filter_error_in_the_child_is_the_serial_error(self, prepared, monkeypatch, capsys):
        cfg, out, tmp_path = self.explained(prepared)
        config = tmp_path / "run.ini"
        write_config_file(cfg, config)

        def refused(table):
            raise fs.SchemaError("chi-square refused this table")

        monkeypatch.setitem(fs.selection.FILTER_SCORERS, "chi_square", refused)
        runs = {}
        for count in (1, 2):
            forks = self.cpus(monkeypatch, count)
            assert cli.main(["select", "--config", str(config), "--compare"]) == 1
            assert len(forks) == count - 1
            runs[count] = capsys.readouterr().err, sorted(path.name for path in out.glob("selection_*.json"))
        assert runs[1] == runs[2]
        err, written = runs[2]
        assert json.loads(err) == {"error": "SchemaError", "message": "chi-square refused this table"}
        assert written == ["selection_correlation.json", "selection_shap.json"]

    def test_a_shap_error_leaves_no_child(self, prepared, monkeypatch):
        cfg, _, _ = self.explained(prepared)
        forks = self.cpus(monkeypatch, 2)
        monkeypatch.setattr(fs.selection, "forward_select", stop)
        with pytest.raises(KeyboardInterrupt):
            cli.cmd_select(cfg, compare=True)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPipeline:
    def test_end_to_end_artifacts(self, prepared):
        cfg, _, _ = prepared
        cli.cmd_pipeline(cfg)
        out = cfg.output_dir
        expected = [
            cli.TRAIN_TABLE, cli.TEST_TABLE, cli.PREPARE_REPORT,
            cli.MODEL_FILE, cli.TRAIN_REPORT,
            cli.SHAP_VALUES, cli.SHAP_BASES, cli.GLOBAL_RANKING,
            cli._selection_file("shap"), cli.SELECT_REPORT,
            cli.EFFECTIVE_CONFIG,
        ]
        import os

        for name in expected:
            assert os.path.exists(f"{out}/{name}"), name

    def test_resume_skips_completed_stages(self, prepared):
        import os

        cfg, _, _ = prepared
        cli.cmd_pipeline(cfg)
        out = cfg.output_dir
        before = os.path.getmtime(f"{out}/{cli.MODEL_FILE}")
        os.remove(f"{out}/{cli.SELECT_REPORT}")
        cli.cmd_pipeline(cfg)
        assert os.path.getmtime(f"{out}/{cli.MODEL_FILE}") == before
        assert os.path.exists(f"{out}/{cli.SELECT_REPORT}")


    def test_resume_under_another_seed_is_refused(self, tmp_path, capsys):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 40, "Recon": 20}, seed=2)
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\ninput_csv = {csv_path}\noutput_dir = {tmp_path / 'out'}\n"
            "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n"
            "[selection]\nmax_candidates = 3\n",
            encoding="utf-8",
        )
        assert cli.main(["pipeline", "--config", str(config), "--seed", "1"]) == 0
        recorded = tmp_path / "out" / cli.EFFECTIVE_CONFIG
        before = recorded.read_bytes()
        capsys.readouterr()
        assert cli.main(["pipeline", "--config", str(config), "--seed", "2"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert "seed" in doc["message"]
        assert recorded.read_bytes() == before
        assert cli.main(["pipeline", "--config", str(config), "--seed", "1"]) == 0


    @pytest.mark.parametrize("stage", ["train", "explain", "select"])
    def test_stage_in_a_directory_prepared_differently_is_refused(self, tmp_path, capsys, stage):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 40, "Recon": 20}, seed=2)
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\ninput_csv = {csv_path}\noutput_dir = {tmp_path / 'out'}\n"
            "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n"
            "[selection]\nmax_candidates = 3\n",
            encoding="utf-8",
        )
        assert cli.main(["pipeline", "--config", str(config), "--seed", "1"]) == 0
        recorded = tmp_path / "out" / cli.EFFECTIVE_CONFIG
        before = recorded.read_bytes()
        capsys.readouterr()
        assert cli.main([stage, "--config", str(config), "--seed", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["error"] == "ValueError"
        assert "different seed;" in doc["message"]
        assert recorded.read_bytes() == before
        assert cli.main([stage, "--config", str(config), "--seed", "1"]) == 0

    def test_prepare_into_a_directory_of_another_run_is_refused(self, tmp_path, capsys):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 40, "Recon": 20}, seed=2)
        config = tmp_path / "run.ini"
        config.write_text(
            f"[run]\ninput_csv = {csv_path}\noutput_dir = {tmp_path / 'out'}\n"
            "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n"
            "[selection]\nmax_candidates = 3\n",
            encoding="utf-8",
        )
        assert cli.main(["pipeline", "--config", str(config), "--seed", "1"]) == 0
        kept = [tmp_path / "out" / name for name in (cli.MODEL_FILE, cli.EFFECTIVE_CONFIG)]
        before = [path.read_bytes() for path in kept]
        capsys.readouterr()
        assert cli.main(["prepare", "--config", str(config), "--seed", "2"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "different seed;" in json.loads(lines[0])["message"]
        assert [path.read_bytes() for path in kept] == before
        assert cli.main(["prepare", "--config", str(config), "--seed", "1"]) == 0

    @staticmethod
    def write_config(tmp_path, name, extra=""):
        """A small run config over tmp_path/flows.csv into tmp_path/out."""
        path = tmp_path / name
        path.write_text(
            f"[run]\ninput_csv = {tmp_path / 'flows.csv'}\noutput_dir = {tmp_path / 'out'}\n"
            "[selection]\nmax_candidates = 3\n" + extra,
            encoding="utf-8",
        )
        return path

    def test_stage_that_would_leave_later_artifacts_stale_is_refused(self, tmp_path, capsys):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n")
        b = self.write_config(tmp_path, "b.ini", "[hyperparams]\nn_estimators = 3\nmax_depth = 2\n")
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        out = tmp_path / "out"
        kept = [out / name for name in (cli.EFFECTIVE_CONFIG, cli.MODEL_FILE, cli.SHAP_VALUES)]
        before = [path.read_bytes() for path in kept]
        capsys.readouterr()
        for command in ("train", "pipeline"):
            assert cli.main([command, "--config", str(b)]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert "different n_estimators;" in json.loads(lines[0])["message"]
        assert [path.read_bytes() for path in kept] == before

    def test_explain_under_other_rows_after_select_is_refused(self, tmp_path, capsys):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Recon": 20}, seed=2)
        hyper = "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n"
        a = self.write_config(tmp_path, "a.ini", hyper)
        c = self.write_config(tmp_path, "c.ini", hyper + "[explain]\nrows = train\n")
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        recorded = tmp_path / "out" / cli.EFFECTIVE_CONFIG
        before = recorded.read_bytes()
        capsys.readouterr()
        assert cli.main(["explain", "--config", str(c)]) == 1
        assert "different explain_rows;" in json.loads(capsys.readouterr().err)["message"]
        assert recorded.read_bytes() == before

    def test_select_with_another_method_after_a_pipeline_runs(self, tmp_path):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n")
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        assert cli.main(["select", "--config", str(a), "--method", "anova"]) == 0
        doc = read_json(tmp_path / "out" / cli._selection_file("anova"))
        assert doc["method"] == "anova"
        assert load_config_file(tmp_path / "out" / cli.EFFECTIVE_CONFIG).method == "anova"

    def test_select_leaves_no_selection_files_of_another_run(self, tmp_path):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n")
        out = tmp_path / "out"
        filters = ("correlation", "chi_square", "anova")
        assert cli.main(["pipeline", "--config", str(a), "--compare", "--k", "12"]) == 0
        assert all(len(read_json(out / cli._selection_file(m))["selected"]) == 12 for m in filters)
        assert cli.main(["select", "--config", str(a), "--k", "5"]) == 0
        assert not any((out / cli._selection_file(m)).exists() for m in filters)
        assert not (out / cli.COMPARISON).exists()
        assert cli.main(["pipeline", "--config", str(a), "--compare", "--k", "5"]) == 0
        assert all(len(read_json(out / cli._selection_file(m))["selected"]) == 5 for m in filters)
        with open(out / cli.COMPARISON, newline="", encoding="utf-8") as fh:
            rows = {r["method"]: r["features"].split(";") for r in csv.DictReader(fh)}
        assert all(len(rows[m]) == 5 for m in filters)

    # A stage is done exactly when its report exists: it deletes the report when
    # it starts and writes it last, so an interrupted stage reruns on resume.
    HYPER = "[hyperparams]\nn_estimators = 2\nmax_depth = 2\n"

    def test_resume_after_explain_stopped_before_the_class_rankings(self, tmp_path, monkeypatch):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", self.HYPER)
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(a)]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli.explain, "per_class_importance", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["explain", "--config", str(a)])
        out = tmp_path / "out"
        assert (out / cli.GLOBAL_RANKING).exists()
        assert not list(out.glob("importance_class_*.csv"))
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        assert len(list(out.glob("importance_class_*.csv"))) == 3
        assert cli.main(["pipeline", "--config", str(a), "--output-dir", str(tmp_path / "ref")]) == 0
        assert_same_artifacts(out, tmp_path / "ref")

    def test_resume_after_select_stopped_mid_run(self, tmp_path, monkeypatch):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", self.HYPER)
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        shutil.copytree(out, tmp_path / "ref")
        with monkeypatch.context() as m:
            m.setattr(cli.selection, "forward_select", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["select", "--config", str(a), "--max-candidates", "30"])
        assert not (out / cli.SELECT_REPORT).exists()
        assert cli.main(["pipeline", "--config", str(a)]) == 0
        assert (out / cli.SELECTED_MODEL).exists()
        assert_same_artifacts(out, tmp_path / "ref")

    def test_resume_after_prepare_stopped_before_its_config_record(self, tmp_path, monkeypatch):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", self.HYPER)
        with monkeypatch.context() as m:
            m.setattr(cli, "write_config_file", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["prepare", "--config", str(a), "--seed", "1"])
        out = tmp_path / "out"
        assert (out / cli.TRAIN_TABLE).exists()
        assert cli.main(["pipeline", "--config", str(a), "--seed", "2"]) == 0
        assert cli.main(["pipeline", "--config", str(a), "--seed", "2", "--output-dir", str(tmp_path / "ref")]) == 0
        assert (out / cli.TRAIN_TABLE).read_bytes() == (tmp_path / "ref" / cli.TRAIN_TABLE).read_bytes()
        assert_same_artifacts(out, tmp_path / "ref")

    def test_report_write_that_fails_halfway_leaves_no_report(self, prepared, monkeypatch):
        cfg, _, _ = prepared
        out = Path(cfg.output_dir)
        dump = json.dump

        def failing_dump(doc, fh, **kwargs):
            if Path(fh.name).name.startswith(cli.TRAIN_REPORT):
                fh.write('{"accuracy": ')
                raise OSError("no space left on device")
            dump(doc, fh, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(json, "dump", failing_dump)
            with pytest.raises(OSError):
                cli.cmd_train(cfg)
        assert (out / cli.MODEL_FILE).exists()
        assert not (out / cli.TRAIN_REPORT).exists()
        assert not list(out.glob("*.partial"))
        cli.cmd_pipeline(cfg)
        assert "accuracy" in read_json(out / cli.TRAIN_REPORT)

    def test_record_write_that_fails_halfway_keeps_the_last_record(self, tmp_path, monkeypatch, capsys):
        # A select whose config record write fails leaves the seed-7, 3-round
        # record; a cut record would read as defaults and let explain run.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", "[hyperparams]\nn_estimators = 3\n")
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(a), "--seed", "7"]) == 0
        real_write = configparser.ConfigParser.write

        def failing_write(parser, fh, *args, **kwargs):
            whole = io.StringIO()
            real_write(parser, whole, *args, **kwargs)
            fh.write(whole.getvalue()[:40])
            raise OSError("no space left on device")

        with monkeypatch.context() as m:
            m.setattr(configparser.ConfigParser, "write", failing_write)
            assert cli.main(["select", "--config", str(a), "--seed", "7"]) == 1
        capsys.readouterr()
        assert cli.main(["explain", "--output-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "different seed, n_estimators;" in err["message"]
        recorded = load_config_file(out / cli.EFFECTIVE_CONFIG)
        assert (recorded.seed, recorded.n_estimators) == (7, 3)
        assert not list(out.glob("*.partial"))

    def test_cut_record_is_refused(self, tmp_path, capsys):
        # A record cut short (by an older version's in-place write, or a full
        # disk) lacks keys that would otherwise read as their defaults.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", "[hyperparams]\nn_estimators = 3\n")
        out = tmp_path / "out"
        assert cli.main(["pipeline", "--config", str(a), "--seed", "7"]) == 0
        recorded = out / cli.EFFECTIVE_CONFIG
        cut = recorded.read_bytes()[:40]
        recorded.write_bytes(cut)
        capsys.readouterr()
        for command in (["explain", "--output-dir", str(out)], ["pipeline", "--config", str(a), "--seed", "7"]):
            assert cli.main(command) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            message = json.loads(lines[0])["message"]
            assert "[run] seed" in message and "[hyperparams] n_estimators" in message
            assert message.endswith("use a fresh output directory")
        assert recorded.read_bytes() == cut

    def test_stage_after_an_interrupted_producer_is_refused(self, tmp_path, monkeypatch, capsys):
        # A train stopped before its report leaves a 2-round model.json beside
        # the 4-round config record: explain and select must not read it.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        four = self.write_config(tmp_path, "four.ini", "[hyperparams]\nn_estimators = 4\nmax_depth = 2\n")
        two = self.write_config(tmp_path, "two.ini", self.HYPER)
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(four)]) == 0
        out = tmp_path / "out"
        with monkeypatch.context() as m:
            m.setattr(cli, "write_config_file", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["train", "--config", str(two)])
        assert (out / cli.MODEL_FILE).exists() and not (out / cli.TRAIN_REPORT).exists()
        capsys.readouterr()
        for stage in ("explain", "select"):
            assert cli.main([stage, "--config", str(four)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "FileNotFoundError" and err["message"].endswith("run train first")
        (out / cli.PREPARE_REPORT).unlink()
        assert cli.main(["train", "--config", str(four)]) == 1
        assert json.loads(capsys.readouterr().err)["message"].endswith("run prepare first")

    def test_train_after_explain_stopped_before_its_report_takes_other_hyperparams(self, tmp_path, monkeypatch):
        # No stage reads the files of an explain that did not complete, so they
        # do not widen train's refusal scope; a resumed pipeline reruns explain.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", self.HYPER)
        b = self.write_config(tmp_path, "b.ini", "[hyperparams]\nn_estimators = 3\nmax_depth = 2\n")
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(a)]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli.explain, "per_class_importance", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["explain", "--config", str(a)])
        out = tmp_path / "out"
        assert (out / cli.SHAP_VALUES).exists() and not (out / cli.SHAP_BASES).exists()
        assert cli.main(["train", "--config", str(b)]) == 0
        assert cli.main(["pipeline", "--config", str(b)]) == 0
        assert cli.main(["pipeline", "--config", str(b), "--output-dir", str(tmp_path / "ref")]) == 0
        assert_same_artifacts(out, tmp_path / "ref")

    def test_select_recomputes_a_ranking_that_explain_did_not_finish(self, tmp_path, monkeypatch):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        a = self.write_config(tmp_path, "a.ini", self.HYPER)
        assert cli.main(["pipeline", "--config", str(a), "--output-dir", str(tmp_path / "ref")]) == 0
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(a)]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli.explain, "per_class_importance", stop)
            with pytest.raises(KeyboardInterrupt):
                cli.main(["explain", "--config", str(a)])
        out = tmp_path / "out"
        (out / cli.GLOBAL_RANKING).write_text("feature,importance\n", encoding="utf-8")
        assert cli.main(["select", "--config", str(a)]) == 0
        name = cli._selection_file("shap")
        assert (out / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_pipeline_renames_each_report_into_place_last(self, prepared, monkeypatch):
        cfg, _, tmp_path = prepared
        cfg = replace(cfg, output_dir=str(tmp_path / "fresh"))
        real_replace, renamed = os.replace, []

        def spy(src, dst):
            renamed.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        cli.cmd_pipeline(cfg, compare=True)
        reports = [cli.PREPARE_REPORT, cli.TRAIN_REPORT, cli.SHAP_BASES, cli.SELECT_REPORT]
        assert [name for name in renamed if name in reports] == reports
        assert renamed[-1] == cli.SELECT_REPORT
        assert not list(Path(cfg.output_dir).glob("*.partial"))

    def test_select_that_selects_nothing_leaves_no_reduced_model(self, prepared, monkeypatch):
        cfg, _, _ = prepared
        cli.cmd_pipeline(cfg)
        reduced = Path(cfg.output_dir) / cli.SELECTED_MODEL
        assert reduced.exists()
        monkeypatch.setattr(cli.selection, "forward_select",
                            lambda *a, **k: fs.SelectionResult([], [], 0.0, "validation", "shap"))
        cli.cmd_select(cfg)
        assert read_json(Path(cfg.output_dir) / cli.SELECT_REPORT)["note"] == "no features selected"
        assert not reduced.exists()

    def test_readme_stage_commands_run_without_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Recon": 20}, seed=2)
        assert cli.main(["prepare", "--input", "flows.csv", "--output-dir", "out", "--seed", "42"]) == 0
        for stage in (["train"], ["explain"], ["select", "--method", "shap"]):
            assert cli.main([*stage, "--output-dir", "out", "--seed", "42"]) == 0
        recorded = tmp_path / "out" / cli.EFFECTIVE_CONFIG
        assert load_config_file(recorded).input_csv == "flows.csv"
        before = recorded.read_bytes()
        capsys.readouterr()
        assert cli.main(["train", "--output-dir", "out", "--seed", "2"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert "different seed;" in doc["message"]
        assert cli.main(["train", "--input", "other.csv", "--output-dir", "out", "--seed", "42"]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert "different input_csv;" in doc["message"]
        assert recorded.read_bytes() == before

    def test_prepare_without_input_takes_the_recorded_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 20, "Recon": 10}, seed=4)
        assert cli.main(["prepare", "--input", "flows.csv", "--output-dir", "out", "--seed", "1"]) == 0
        first = (tmp_path / "out" / cli.TRAIN_TABLE).read_bytes()
        assert cli.main(["prepare", "--output-dir", "out", "--seed", "1"]) == 0
        assert (tmp_path / "out" / cli.TRAIN_TABLE).read_bytes() == first
        capsys.readouterr()
        assert cli.main(["prepare", "--output-dir", "fresh", "--seed", "1"]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "no input CSV configured"
        assert not (tmp_path / "fresh").exists()


class TestConfigFile:
    def test_round_trip_reproduces_run(self, prepared, tmp_path):
        cfg, _, _ = prepared
        echoed = f"{cfg.output_dir}/{cli.EFFECTIVE_CONFIG}"
        loaded = load_config_file(echoed)
        rerun_dir = tmp_path / "rerun"
        rerun = replace(loaded, output_dir=str(rerun_dir))
        cli.cmd_prepare(rerun)
        first = Path(f"{cfg.output_dir}/{cli.PREPARE_REPORT}").read_bytes()
        second = Path(f"{rerun_dir}/{cli.PREPARE_REPORT}").read_bytes()
        assert first == second

    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        ini = tmp_path / "conf.ini"
        write_config_file(RunConfig(seed=5, method="anova", k_for_filters=9), ini)
        args = cli._build_parser().parse_args(
            ["select", "--config", str(ini), "--method", "chi_square"]
        )
        cfg = cli.build_config(args)
        assert cfg.method == "chi_square"  # flag wins
        assert cfg.k_for_filters == 9      # file wins over default
        assert cfg.seed == 5

    def test_optional_fields_round_trip(self, tmp_path):
        ini = tmp_path / "conf.ini"
        write_config_file(RunConfig(max_candidates=None, patience=3), ini)
        cfg = load_config_file(ini)
        assert cfg.max_candidates is None
        assert cfg.patience == 3


class TestMainEntry:
    def test_success_exit_zero(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 10, "Attack": 10}, seed=3)
        rc = cli.main([
            "prepare", "--input", str(csv_path),
            "--output-dir", str(tmp_path / "out"), "--seed", "3",
        ])
        assert rc == 0

    def test_error_is_single_json_line_and_nonzero(self, tmp_path, capsys):
        rc = cli.main([
            "prepare", "--input", str(tmp_path / "missing.csv"),
            "--output-dir", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        doc = json.loads(err)
        assert "error" in doc and "message" in doc

    @pytest.mark.parametrize("command, flag, value, key", [
        ("train", "--seed", "1.5", "seed"),
        ("select", "--k", "x", "k_for_filters"),
        ("select", "--method", "bogus", "method"),
        ("pipeline", "--eval-scope", "nope", "evaluation_scope"),
    ])
    def test_bad_flag_value_is_one_json_line(self, tmp_path, capsys, command, flag, value, key):
        # A flag is parsed and checked as its INI key is, not by argparse.
        out = tmp_path / "out"
        assert cli.main([command, "--output-dir", str(out), flag, value]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert key in json.loads(err)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--bogus", "1"], "flowshap: unrecognized arguments: --bogus 1"),
        ([], "flowshap: the following arguments are required: command"),
        (["train", "--seed"], "flowshap train: argument --seed: expected one argument"),
    ], ids=["unknown-flag", "no-command", "flag-without-value"])
    def test_usage_error_is_one_json_line(self, capsys, argv, message):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("argv", [["--help"], ["train", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: flowshap")

    def test_paper_faithful_flag(self, tmp_path):
        args = cli._build_parser().parse_args(["pipeline", "--paper-faithful"])
        cfg = cli.build_config(args)
        assert cfg.evaluation_scope == "test"

    @pytest.mark.parametrize("command", ["prepare", "train", "explain", "select", "pipeline"])
    def test_main_calls_the_command_through_its_module_attribute(self, tmp_path, monkeypatch, command):
        # perfbench/tracer.py times a stage by replacing cli.cmd_<stage>: main
        # must call whatever that attribute holds, passing --compare to the
        # commands that take it.
        calls = []
        monkeypatch.setattr(cli, f"cmd_{command}", lambda cfg, **kwargs: calls.append((cfg, kwargs)))
        flags = ["--compare"] if command in ("select", "pipeline") else []
        assert cli.main([command, "--output-dir", str(tmp_path), "--seed", "5", *flags]) == 0
        [(cfg, kwargs)] = calls
        assert (cfg.output_dir, cfg.seed) == (str(tmp_path), 5)
        assert kwargs == ({"compare": True} if flags else {})


class TestConfigSchema:
    def test_percent_values_round_trip(self, tmp_path):
        ini = tmp_path / "conf.ini"
        cfg = RunConfig(output_dir=str(tmp_path / "out%20dir"), label_column="Stage %(x)s")
        write_config_file(cfg, ini)
        assert load_config_file(ini) == cfg

    def test_prepare_into_percent_directory(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 10, "Attack": 10}, seed=3)
        cfg = RunConfig(input_csv=str(csv_path), output_dir=str(tmp_path / "100%"))
        cli.cmd_prepare(cfg)
        assert load_config_file(tmp_path / "100%" / cli.EFFECTIVE_CONFIG) == cfg

    def test_drop_column_names_with_commas_round_trip(self, tmp_path):
        ini = tmp_path / "conf.ini"
        cfg = RunConfig(drop_columns=("Flow ID", "Fwd, Bwd", 'Say "hi", twice'))
        write_config_file(cfg, ini)
        assert load_config_file(ini).drop_columns == cfg.drop_columns

    def test_plain_drop_columns_are_written_unquoted(self, tmp_path):
        ini = tmp_path / "conf.ini"
        write_config_file(RunConfig(), ini)
        assert "drop_columns = Flow ID, Src IP, Src Port, Dst IP, Dst Port, Timestamp\n" in ini.read_text()

    EVERY_KEY = RunConfig(
        input_csv="flows.csv", label_column="Activity", drop_columns=("Flow ID", "Fwd, Bwd", "Src IP"),
        seed=42, output_dir="runs/a", train_fraction=0.7, stratified=False,
        n_estimators=3, learning_rate=0.1, max_depth=4, min_child_weight=0.5, gamma=1e-05,
        reg_lambda=2.0, reg_alpha=1 / 3, base_score=0.25, method="anova", k_for_filters=8,
        max_candidates=20, patience=4, evaluation_scope="test", explain_rows="train",
    )
    EVERY_KEY_RECORD = (
        "[run]", "input_csv = flows.csv", "label_column = Activity",
        'drop_columns = Flow ID, "Fwd, Bwd", Src IP', "seed = 42", "output_dir = runs/a", "",
        "[split]", "train_fraction = 0.7", "stratified = false", "",
        "[hyperparams]", "n_estimators = 3", "learning_rate = 0.1", "max_depth = 4",
        "min_child_weight = 0.5", "gamma = 1e-05", "lambda = 2.0", "alpha = 0.3333333333333333",
        "base_score = 0.25", "",
        "[selection]", "method = anova", "k_for_filters = 8", "max_candidates = 20", "patience = 4",
        "evaluation_scope = test", "",
        "[explain]", "rows = train", "", "",
    )
    DEFAULT_RECORD = (
        "[run]", "input_csv = ", "label_column = Stage",
        "drop_columns = Flow ID, Src IP, Src Port, Dst IP, Dst Port, Timestamp", "seed = 0",
        "output_dir = out", "",
        "[split]", "train_fraction = 0.8", "stratified = true", "",
        "[hyperparams]", "n_estimators = 100", "learning_rate = 0.3", "max_depth = 6",
        "min_child_weight = 1.0", "gamma = 0.0", "lambda = 1.0", "alpha = 0.0", "base_score = 0.5", "",
        "[selection]", "method = shap", "k_for_filters = 12", "max_candidates = ", "patience = ",
        "evaluation_scope = validation", "",
        "[explain]", "rows = test", "", "",
    )

    @pytest.mark.parametrize("cfg, record", [(EVERY_KEY, EVERY_KEY_RECORD), (RunConfig(), DEFAULT_RECORD)])
    def test_record_bytes_and_key_order(self, tmp_path, cfg, record):
        # Every key in file order, floats as their shortest repr, unset keys empty.
        ini = tmp_path / "conf.ini"
        write_config_file(cfg, ini)
        assert ini.read_bytes() == "\n".join(record).encode()
        assert load_config_file(ini, whole=True) == cfg

    def test_readme_config_block_lists_every_key_with_its_default(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.S)
        ini = tmp_path / "readme.ini"
        ini.write_text(block, encoding="utf-8")
        assert load_config_file(ini, whole=True) == RunConfig(input_csv="flows.csv", seed=42)

    def test_multi_line_names_are_one_error_naming_file_and_key(self, tmp_path, capsys):
        ini = tmp_path / "conf.ini"
        ini.write_text("[run]\ndrop_columns = Flow ID,\n Src IP\n")
        assert cli.main(["prepare", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "ValueError"
        assert doc["message"].startswith(f"{ini}: [run] drop_columns: ")

    def test_unknown_section_and_key_rejected(self, tmp_path):
        ini = tmp_path / "conf.ini"
        ini.write_text("[hyperparams]\nlearning_rte = 0.1\n\n[selektion]\nmethod = anova\n")
        with pytest.raises(ValueError) as exc:
            load_config_file(ini)
        assert "[hyperparams] learning_rte" in str(exc.value)
        assert "[selektion]" in str(exc.value)

    def test_default_section_rejected(self, tmp_path):
        ini = tmp_path / "conf.ini"
        ini.write_text("[DEFAULT]\nseed = 3\n\n[run]\noutput_dir = out\n")
        with pytest.raises(ValueError, match=r"\[DEFAULT\]"):
            load_config_file(ini)

    def test_bad_value_names_its_key(self, tmp_path):
        ini = tmp_path / "conf.ini"
        ini.write_text("[split]\nstratified = maybe\n")
        with pytest.raises(ValueError, match=r"\[split\] stratified"):
            load_config_file(ini)

    @pytest.mark.parametrize("bad", [
        {"max_depth": 0}, {"train_fraction": 1.5}, {"k_for_filters": 0}, {"learning_rate": 0.0},
        {"max_candidates": 0}, {"max_candidates": -1}, {"patience": 0},
    ])
    def test_invalid_values_fail_at_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_pipeline_with_invalid_config_writes_nothing(self, tmp_path, capsys):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 10, "Attack": 10}, seed=3)
        out = tmp_path / "out"
        ini = tmp_path / "conf.ini"
        ini.write_text(
            f"[run]\ninput_csv = {csv_path}\noutput_dir = {out}\n\n[hyperparams]\nmax_depth = 0\n"
        )
        rc = cli.main(["pipeline", "--config", str(ini)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert "max_depth" in json.loads(err)["message"]
        assert not (out / cli.TRAIN_TABLE).exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["min_child_weight", "gamma", "lambda", "alpha", "base_score"])
    def test_non_finite_hyperparameter_is_one_json_line(self, tmp_path, capsys, key, value):
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 20, "Recon": 10}, seed=4)
        good = TestPipeline.write_config(tmp_path, "good.ini")
        bad = TestPipeline.write_config(tmp_path, "bad.ini", f"[hyperparams]\n{key} = {value}\n")
        assert cli.main(["prepare", "--config", str(good)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(bad)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "must be finite" in json.loads(lines[0])["message"]
        assert not (tmp_path / "out" / cli.MODEL_FILE).exists()

    def test_flags_cover_their_fields(self, tmp_path):
        args = cli._build_parser().parse_args([
            "select", "--input", "in.csv", "--k", "3", "--eval-scope", "test",
            "--max-candidates", "4", "--output-dir", str(tmp_path),
        ])
        cfg = cli.build_config(args)
        assert (cfg.input_csv, cfg.k_for_filters, cfg.evaluation_scope, cfg.max_candidates) == (
            "in.csv", 3, "test", 4)
        assert cfg.output_dir == str(tmp_path)


class TestExplainAdditivity:
    @staticmethod
    def perturb(monkeypatch):
        """Make ``explain.tree_shap`` miss the margins by 1e-3 in one cell."""
        exact = fs.explain.tree_shap

        def perturbed(ens, table):
            shap = exact(ens, table)
            shap.values[0, 0, 0] += 1e-3
            return shap

        monkeypatch.setattr(fs.explain, "tree_shap", perturbed)

    def test_perturbed_attributions_are_rejected(self, prepared, monkeypatch):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        self.perturb(monkeypatch)
        with pytest.raises(ValueError, match="attributions miss the margins"):
            cli.cmd_explain(cfg)
        assert not (Path(cfg.output_dir) / cli.SHAP_VALUES).exists()

    def test_select_without_explain_rejects_perturbed_attributions(self, tmp_path, monkeypatch, capsys):
        # select runs explain first, so its ranking passes the same additivity gate.
        write_flow_csv(tmp_path / "flows.csv", {"Benign": 40, "Pivoting": 20, "Recon": 20}, seed=2)
        config = TestPipeline.write_config(tmp_path, "a.ini", TestPipeline.HYPER)
        for stage in ("prepare", "train"):
            assert cli.main([stage, "--config", str(config)]) == 0
        self.perturb(monkeypatch)
        capsys.readouterr()
        assert cli.main(["select", "--config", str(config)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["message"].startswith("attributions miss the margins")
        assert not list((tmp_path / "out").glob("selection_*.json"))
