"""Pipeline subcommands: prepare, train, explain, select, pipeline.

Every stage reads and writes files under the configured output directory,
echoes the effective configuration, and is deterministic for a fixed seed
(wall-clock timing fields aside).
"""

import argparse
import csv
import json
import sys
from dataclasses import astuple, replace
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

# Each stage's artifacts, and the config sections they are made under.
STAGES = {
    "prepare": ((TRAIN_TABLE, TEST_TABLE, PREPARE_REPORT), ("run", "split")),
    "train": ((MODEL_FILE, TRAIN_REPORT), ("run", "split", "hyperparams")),
    "explain": ((SHAP_VALUES, SHAP_BASES, GLOBAL_RANKING), ("run", "split", "hyperparams", "explain")),
    "select": ((SELECT_REPORT,), ("run", "split", "hyperparams", "explain", "selection")),
}


def _outdir(cfg: RunConfig, stage: str | None = None) -> tuple[RunConfig, Path]:
    """This run's config and output directory, refused when the recorded config
    differs in a key that an artifact this run keeps was made under: any key for
    the pipeline (no ``stage``); for a stage, the prepared tables' keys and those
    of every other stage whose artifacts exist. A run without an input CSV takes
    the recorded one: only prepare reads it."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    recorded = out / EFFECTIVE_CONFIG
    if recorded.exists():
        before = load_config_file(recorded)
        cfg = replace(cfg, input_csv=cfg.input_csv or before.input_csv)
        kept = {section for name, (files, sections) in STAGES.items()
                if stage is None or name == "prepare"
                or name != stage and any((out / f).exists() for f in files)
                for section in sections}
        changed = [field for section, _, field, _, _ in SCHEMA
                   if section in kept and field != FIELD.output_dir
                   and getattr(before, field) != getattr(cfg, field)]
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
    cfg, out = _outdir(cfg, "prepare")
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
    cfg, out = _outdir(cfg, "train")
    ens, report = metrics.fit_and_evaluate(*_load_tables(out), cfg.hyperparams())
    gbt.save_model(ens, out / MODEL_FILE)
    _write_json(metrics.report_to_dict(report), out / TRAIN_REPORT)
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return report


def _explained_rows(cfg: RunConfig, train_t, test_t):
    return test_t if cfg.explain_rows == "test" else train_t


def cmd_explain(cfg: RunConfig) -> explain.ShapMatrix:
    """Attribute margins over the chosen rows, verify additivity, and export
    values and rankings."""
    cfg, out = _outdir(cfg, "explain")
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
    bases = {name: float(shap.base_values[k]) for k, name in enumerate(ens.class_names)}
    _write_json({"base_values": bases}, out / SHAP_BASES)
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


def _run_method(cfg: RunConfig, method: str, out: Path, train_t, test_t) -> selection.SelectionResult:
    """One method's selection; its ``fit`` is the reduced model trained on the
    train table and scored on the test table."""
    hp = cfg.hyperparams()
    if method == "shap":
        # Test scope scores candidate subsets on the final tables, validation
        # scope on a carve-out of the train table.
        test_scope = cfg.evaluation_scope == "test"
        sel_train, eval_t = ((train_t, test_t) if test_scope
                             else ingest.stratified_split(train_t, cfg.carve_spec()))
        result = selection.forward_select(
            _shap_ranking(cfg, out, train_t, test_t), sel_train, eval_t, hp,
            max_candidates=cfg.max_candidates, patience=cfg.patience,
            evaluation_scope=cfg.evaluation_scope,
        )
        if not test_scope and result.selected:
            selected = result.selected
            result.fit = metrics.fit_and_evaluate(train_t.restrict(selected), test_t.restrict(selected), hp)
        return result
    selected = selection.filter_select(selection.FILTER_SCORERS[method](train_t), cfg.k_for_filters)
    fit = metrics.fit_and_evaluate(train_t.restrict(selected), test_t.restrict(selected), hp)
    return selection.SelectionResult(trace=[], selected=selected, f1_best=fit[1].macro.f1,
                                     evaluation_scope="test", method=method, fit=fit)


def cmd_select(cfg: RunConfig, compare: bool = False) -> dict:
    """Select features, retrain the reduced model, and report test metrics."""
    cfg, out = _outdir(cfg, "select")
    train_t, test_t = _load_tables(out)

    rows = []
    primary_report = {}
    for method in list(SELECTION_METHODS) if compare else [cfg.method]:
        result = _run_method(cfg, method, out, train_t, test_t)
        _write_json(selection.selection_to_dict(result), out / _selection_file(method))
        if result.fit is None:
            doc, macro = {"note": "no features selected"}, metrics.Averages(0.0, 0.0, 0.0)
        else:
            ens, report = result.fit
            doc, macro = metrics.report_to_dict(report), report.macro
            if method == cfg.method:
                gbt.save_model(ens, out / SELECTED_MODEL)
        if method == cfg.method:
            doc["selected_features"] = list(result.selected)
            _write_json(doc, out / SELECT_REPORT)
            primary_report = doc
        rows.append([method, ";".join(result.selected), *map(repr, astuple(macro))])
    if compare:
        with open(out / COMPARISON, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "features", "macro_precision", "macro_recall", "macro_f1"])
            writer.writerows(rows)
    write_config_file(cfg, out / EFFECTIVE_CONFIG)
    return primary_report


def _stage_done(out: Path, files) -> bool:
    return all((out / f).exists() for f in files)


def cmd_pipeline(cfg: RunConfig, compare: bool = False) -> None:
    """Run every stage in order, skipping stages whose outputs already exist.

    Refuses a directory whose recorded configuration differs from this run's
    in anything but the output directory, since its artifacts are stale.
    """
    cfg, out = _outdir(cfg)
    for stage, run in (("prepare", cmd_prepare), ("train", cmd_train), ("explain", cmd_explain)):
        if not _stage_done(out, STAGES[stage][0]):
            run(cfg)
    select_outputs = [_selection_file(cfg.method), *STAGES["select"][0]]
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
