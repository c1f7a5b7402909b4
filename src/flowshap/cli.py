"""Pipeline subcommands: prepare, train, explain, select, pipeline.

Every stage reads and writes files under the configured output directory,
echoes the effective configuration, and is deterministic for a fixed seed
(wall-clock timing fields aside).
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import explain, gbt, ingest, metrics, selection
from .config import FIELD, SCHEMA, SELECTION_METHODS, RunConfig, load_config_file, write_config_file

TRAIN_TABLE = "train_table.npz"
TEST_TABLE = "test_table.npz"
PREPARE_REPORT = "prepare_report.json"
MODEL_FILE = "model.json"
TRAIN_REPORT = "train_report.json"
SHAP_VALUES = "shap_values.csv"
SHAP_BASES = "shap_base_values.json"
GLOBAL_RANKING = "importance_global.csv"
SELECT_REPORT = "select_report.json"
SELECTED_MODEL = "model_selected.json"
COMPARISON = "comparison.csv"
EFFECTIVE_CONFIG = "effective_config.ini"

ADDITIVITY_TOLERANCE = 1e-6

# Config fields a directory's artifacts depend on: prepare reads the [run] and
# [split] keys, and a resumed pipeline reuses the output of every stage.
PREPARE_FIELDS = [field for section, _, field, _, _ in SCHEMA
                  if section in ("run", "split") and field != FIELD.output_dir]
PIPELINE_FIELDS = [field for _, _, field, _, _ in SCHEMA if field != FIELD.output_dir]


def _outdir(cfg: RunConfig, fields) -> tuple[RunConfig, Path]:
    """This run's config and output directory, refused when the directory's
    recorded config differs in any of ``fields``, since its artifacts are
    stale. A run without an input CSV takes the recorded one: only prepare
    reads it."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    recorded = out / EFFECTIVE_CONFIG
    if recorded.exists():
        before = load_config_file(recorded)
        cfg = replace(cfg, input_csv=cfg.input_csv or before.input_csv)
        changed = [field for field in fields if getattr(before, field) != getattr(cfg, field)]
        if changed:
            raise ValueError(f"{recorded} records a run with different {', '.join(changed)}; "
                             "use a fresh output directory")
    return cfg, out


def _write_json(doc, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _class_ranking_file(k: int, name: str) -> str:
    return f"importance_class_{k:02d}_{_safe_name(name)}.csv"


def _selection_file(method: str) -> str:
    return f"selection_{method}.json"


def cmd_prepare(cfg: RunConfig) -> dict:
    """Parse, clean, split, and persist the train/test tables."""
    if not cfg.input_csv:
        raise ValueError("no input CSV configured")
    cfg, out = _outdir(cfg, PREPARE_FIELDS)
    raw = ingest.load_csv(cfg.input_csv)
    table = ingest.preprocess(raw, drop_columns=set(cfg.drop_columns), label_column=cfg.label_column)
    train_t, test_t = ingest.stratified_split(table, cfg.split_spec())
    cw = ingest.class_weights(train_t.labels, len(table.class_names))
    ingest.save_table(train_t, out / TRAIN_TABLE)
    ingest.save_table(test_t, out / TEST_TABLE)
    report = {
        "rows_in": raw.row_count,
        "rows_dropped": raw.row_count - table.n_rows,
        "features_kept": table.n_features,
        "train_rows": train_t.n_rows,
        "test_rows": test_t.n_rows,
        "class_histogram": {
            name: int(cw.class_counts[k]) for k, name in enumerate(table.class_names)
        },
        "class_weights": {
            name: float(cw.weights[k]) for k, name in enumerate(table.class_names)
        },
    }
    _write_json(report, out / PREPARE_REPORT)
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return report


def _load_tables(out: Path):
    train_path = out / TRAIN_TABLE
    test_path = out / TEST_TABLE
    if not train_path.exists() or not test_path.exists():
        raise FileNotFoundError(f"prepared tables not found under {out}; run prepare first")
    return ingest.load_table(train_path), ingest.load_table(test_path)


def cmd_train(cfg: RunConfig) -> metrics.EvalReport:
    """Train with inverse-frequency sample weights and report test metrics."""
    cfg, out = _outdir(cfg, PREPARE_FIELDS)
    train_t, test_t = _load_tables(out)
    ens, train_seconds = gbt.train_weighted(train_t, cfg.hyperparams())
    gbt.save_model(ens, out / MODEL_FILE)
    report = metrics.timed_evaluate(ens, test_t, train_seconds=train_seconds)
    _write_json(metrics.report_to_dict(report), out / TRAIN_REPORT)
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return report


def _explained_rows(cfg: RunConfig, train_t, test_t):
    return test_t if cfg.explain_rows == "test" else train_t


def cmd_explain(cfg: RunConfig) -> explain.ShapMatrix:
    """Attribute margins over the chosen rows, verify additivity, and export
    values and rankings."""
    cfg, out = _outdir(cfg, PREPARE_FIELDS)
    ens = gbt.load_model(out / MODEL_FILE)
    table = _explained_rows(cfg, *_load_tables(out))
    shap = explain.tree_shap(ens, table)
    reconstructed = shap.base_values + shap.values.sum(axis=2)
    error = np.abs(reconstructed - gbt.predict_margins(ens, table.features)).max(initial=0.0)
    if not error <= ADDITIVITY_TOLERANCE:
        raise ValueError(
            f"attributions miss the margins by {error:.3g}, above {ADDITIVITY_TOLERANCE:g}"
        )
    explain.write_shap_csv(shap, ens.class_names, out / SHAP_VALUES)
    explain.write_base_values_json(shap, ens.class_names, out / SHAP_BASES)
    explain.write_ranking_csv(explain.global_importance(shap), out / GLOBAL_RANKING)
    for k, name in enumerate(ens.class_names):
        explain.write_ranking_csv(
            explain.per_class_importance(shap, k), out / _class_ranking_file(k, name)
        )
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return shap


def read_ranking_csv(path) -> explain.ImportanceRanking:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        entries = [(row["feature"], float(row["score"])) for row in reader]
    return explain.ImportanceRanking(entries=entries, scope="global")


def _shap_ranking(cfg: RunConfig, out: Path, train_t, test_t) -> explain.ImportanceRanking:
    path = out / GLOBAL_RANKING
    if path.exists():
        return read_ranking_csv(path)
    ens = gbt.load_model(out / MODEL_FILE)
    return explain.global_importance(explain.tree_shap(ens, _explained_rows(cfg, train_t, test_t)))


def _selection_tables(cfg: RunConfig, train_t, test_t):
    """Tables the forward pass trains and scores on, per evaluation scope."""
    if cfg.evaluation_scope == "test":
        return train_t, test_t
    return ingest.stratified_split(train_t, cfg.carve_spec())


def _run_method(cfg: RunConfig, method: str, out: Path, train_t, test_t) -> selection.SelectionResult:
    if method == "shap":
        ranking = _shap_ranking(cfg, out, train_t, test_t)
        sel_train, eval_t = _selection_tables(cfg, train_t, test_t)
        return selection.forward_select(
            ranking, sel_train, eval_t, cfg.hyperparams(),
            max_candidates=cfg.max_candidates, patience=cfg.patience,
            evaluation_scope=cfg.evaluation_scope,
        )
    scores = selection.FILTER_SCORERS[method](train_t)
    selected = selection.filter_select(scores, cfg.k_for_filters)
    return selection.SelectionResult(
        trace=[], selected=selected, f1_best=0.0, evaluation_scope="test", method=method,
    )


def _final_model_report(cfg: RunConfig, selected, train_t, test_t):
    """Retrain on the selected subset with fresh weights; score on test."""
    ens, train_seconds = gbt.train_weighted(train_t.restrict(selected), cfg.hyperparams())
    report = metrics.timed_evaluate(ens, test_t.restrict(selected), train_seconds=train_seconds)
    return ens, report


def cmd_select(cfg: RunConfig, compare: bool = False) -> dict:
    """Select features, retrain the reduced model, and report test metrics."""
    cfg, out = _outdir(cfg, PREPARE_FIELDS)
    train_t, test_t = _load_tables(out)

    methods = list(SELECTION_METHODS) if compare else [cfg.method]
    comparison_rows = []
    primary_report = None
    for method in methods:
        result = _run_method(cfg, method, out, train_t, test_t)
        if result.selected:
            ens, report = _final_model_report(cfg, result.selected, train_t, test_t)
        else:
            ens, report = None, None
        if method != "shap" and report is not None:
            result.f1_best = report.macro.f1
        _write_json(selection.selection_to_dict(result), out / _selection_file(method))
        if method == cfg.method:
            if ens is not None:
                gbt.save_model(ens, out / SELECTED_MODEL)
            doc = metrics.report_to_dict(report) if report is not None else {"note": "no features selected"}
            doc["selected_features"] = list(result.selected)
            _write_json(doc, out / SELECT_REPORT)
            primary_report = doc
        if compare:
            macro = report.macro if report is not None else metrics.Averages(0.0, 0.0, 0.0)
            comparison_rows.append(
                (method, ";".join(result.selected), macro.precision, macro.recall, macro.f1)
            )
    if compare:
        with open(out / COMPARISON, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "features", "macro_precision", "macro_recall", "macro_f1"])
            for row in comparison_rows:
                writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]), repr(row[4])])
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return primary_report if primary_report is not None else {}


def _stage_done(out: Path, files) -> bool:
    return all((out / f).exists() for f in files)


def cmd_pipeline(cfg: RunConfig, compare: bool = False) -> None:
    """Run every stage in order, skipping stages whose outputs already exist.

    Refuses a directory whose recorded configuration differs from this run's
    in anything but the output directory, since its artifacts are stale.
    """
    cfg, out = _outdir(cfg, PIPELINE_FIELDS)
    if not _stage_done(out, [TRAIN_TABLE, TEST_TABLE, PREPARE_REPORT]):
        cmd_prepare(cfg)
    if not _stage_done(out, [MODEL_FILE, TRAIN_REPORT]):
        cmd_train(cfg)
    if not _stage_done(out, [SHAP_VALUES, SHAP_BASES, GLOBAL_RANKING]):
        cmd_explain(cfg)
    select_outputs = [_selection_file(cfg.method), SELECT_REPORT]
    if compare:
        select_outputs.append(COMPARISON)
    if not _stage_done(out, select_outputs):
        cmd_select(cfg, compare=compare)


def build_config(args) -> RunConfig:
    """Defaults, then the config file, then every flag whose destination is a
    RunConfig field."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    overrides = {field: getattr(args, field) for _, _, field, _, _ in SCHEMA
                 if getattr(args, field, None) is not None}
    return replace(cfg, **overrides)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowshap",
        description="Boosted-tree flow classification with Shapley-ranked feature selection",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--input", dest=FIELD.input_csv, help="input flow CSV")
    common.add_argument("--output-dir", help="artifact directory")
    common.add_argument("--seed", type=int, help="master seed for every stage")

    select_opts = argparse.ArgumentParser(add_help=False)
    select_opts.add_argument("--method", choices=SELECTION_METHODS)
    select_opts.add_argument(
        "--k", type=int, dest=FIELD.k_for_filters, help="feature count for filter methods",
    )
    select_opts.add_argument("--max-candidates", type=int)
    select_opts.add_argument(
        "--eval-scope", choices=("validation", "test"), dest=FIELD.evaluation_scope,
        help="where candidate subsets are scored",
    )
    select_opts.add_argument(
        "--paper-faithful", action="store_const", const="test", dest=FIELD.evaluation_scope,
        help="score candidate subsets on the held-out test set (same as --eval-scope test)",
    )
    select_opts.add_argument(
        "--compare", action="store_true",
        help="run every selection method and write a comparison table",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", parents=[common], help="parse, clean, and split the input CSV")
    sub.add_parser("train", parents=[common], help="train the full-feature model")
    sub.add_parser("explain", parents=[common], help="export attributions and rankings")
    sub.add_parser("select", parents=[common, select_opts], help="select features and retrain")
    sub.add_parser("pipeline", parents=[common, select_opts], help="run all stages in order")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "prepare":
            cmd_prepare(cfg)
        elif args.command == "train":
            cmd_train(cfg)
        elif args.command == "explain":
            cmd_explain(cfg)
        elif args.command == "select":
            cmd_select(cfg, compare=args.compare)
        elif args.command == "pipeline":
            cmd_pipeline(cfg, compare=args.compare)
    except Exception as exc:  # single structured diagnostic line, nonzero exit
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
