"""End-to-end tests of the pipeline subcommands and their artifacts."""

import csv
import json
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

    def test_paper_faithful_flag(self, tmp_path):
        args = cli._build_parser().parse_args(["pipeline", "--paper-faithful"])
        cfg = cli.build_config(args)
        assert cfg.evaluation_scope == "test"


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
    def test_perturbed_attributions_are_rejected(self, prepared, monkeypatch):
        cfg, _, _ = prepared
        cli.cmd_train(cfg)
        exact = fs.explain.tree_shap

        def perturbed(ens, table):
            shap = exact(ens, table)
            shap.values[0, 0, 0] += 1e-3
            return shap

        monkeypatch.setattr(fs.explain, "tree_shap", perturbed)
        with pytest.raises(ValueError, match="attributions miss the margins"):
            cli.cmd_explain(cfg)
        assert not (Path(cfg.output_dir) / cli.SHAP_VALUES).exists()
