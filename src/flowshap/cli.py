"""Pipeline subcommands: prepare, train, explain, select, pipeline.

Every stage reads and writes files under the configured output directory,
echoes the effective configuration, and is deterministic for a fixed seed
(wall-clock timing fields aside). It deletes its report when it starts and ends
in ``_finish``: the config record, then the report, each written whole.
``select --compare`` fits the filter baselines through ``ingest.forked``, same bytes.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import explain, gbt, ingest, metrics, selection
from .config import FIELD, SCHEMA, SELECTION_METHODS, RunConfig, build_config, load_config_file, write_config_file

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

# Each stage's report and the config sections its artifacts are made under. A
# stage is done exactly when its report exists (``_done``); ``pipeline`` resumes on that.
STAGES = {
    "prepare": (PREPARE_REPORT, ("run", "split")),
    "train": (TRAIN_REPORT, ("run", "split", "hyperparams")),
    "explain": (SHAP_BASES, ("run", "split", "hyperparams", "explain")),
    "select": (SELECT_REPORT, ("run", "split", "hyperparams", "explain", "selection")),
}


def _done(out: Path, stage: str) -> bool:
    """Whether ``stage`` has completed under ``out``: its report exists."""
    return (out / STAGES[stage][0]).exists()


def _outdir(cfg: RunConfig, stage: str | None = None) -> tuple[RunConfig, Path]:
    """This run's config and output directory, refused when the recorded config
    differs in a key that an artifact this run keeps was made under: any key for
    the pipeline (no ``stage``); for a stage, the prepared tables' keys and those
    of every other stage that has completed. A run without an input CSV takes
    the recorded one: only prepare reads it, and only prepare makes the directory.
    A stage's report is deleted once the config is accepted."""
    out = Path(cfg.output_dir)
    recorded = out / EFFECTIVE_CONFIG
    if recorded.exists():
        before = load_config_file(recorded, whole=True)
        cfg = replace(cfg, input_csv=cfg.input_csv or before.input_csv)
        kept = {section for name, (_, sections) in STAGES.items()
                if stage is None or name == "prepare" or name != stage and _done(out, name)
                for section in sections}
        changed = [field for section, _, field, _, _ in SCHEMA
                   if section in kept and field != FIELD.output_dir
                   and getattr(before, field) != getattr(cfg, field)]
        if changed:
            raise ValueError(f"{recorded} records a run with different {', '.join(changed)}; "
                             "use a fresh output directory")
    if stage:
        (out / STAGES[stage][0]).unlink(missing_ok=True)
    return cfg, out


def _write_whole(path: Path, write) -> None:
    """Write ``path`` whole or not at all: ``write(<name>.partial)``, then renamed."""
    partial = Path(f"{path}.partial")
    try:
        write(partial)
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _write_json(doc, path: Path) -> None:
    def write(partial):
        with open(partial, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    _write_whole(path, write)


def _finish(cfg: RunConfig, out: Path, stage: str, report) -> None:
    """End ``stage``: record the config, then write its report; each whole."""
    _write_whole(out / EFFECTIVE_CONFIG, lambda partial: write_config_file(cfg, partial))
    _write_json(report, out / STAGES[stage][0])


def _completed(out: Path, stage: str) -> Path:
    """``out``, once ``stage`` has completed there."""
    if not _done(out, stage):
        raise FileNotFoundError(f"{stage} has not completed under {out}; run {stage} first")
    return out


def _class_ranking_file(k: int, name: str) -> str:
    return f"importance_class_{k:02d}_{''.join(c if c.isalnum() else '_' for c in name)}.csv"


def _selection_file(method: str) -> str:
    return f"selection_{method}.json"


def cmd_prepare(cfg: RunConfig) -> dict:
    """Parse, clean, split, and persist the train/test tables."""
    cfg, out = _outdir(cfg, "prepare")
    if not cfg.input_csv:
        raise ValueError("no input CSV configured")
    out.mkdir(parents=True, exist_ok=True)
    table, rows_in = ingest.read_flow_csv(cfg.input_csv, drop_columns=set(cfg.drop_columns),
                                          label_column=cfg.label_column)
    train_rows, test_rows = ingest.split_rows(table, cfg.split_spec())
    cw = ingest.class_weights(table.labels[train_rows], len(table.class_names))
    ingest.save_table(table, out / TRAIN_TABLE, train_rows)
    ingest.save_table(table, out / TEST_TABLE, test_rows)
    report = {
        "rows_in": rows_in,
        "rows_dropped": rows_in - table.n_rows,
        "features_kept": table.n_features,
        "train_rows": len(train_rows),
        "test_rows": len(test_rows),
        "class_histogram": {
            name: int(cw.class_counts[k]) for k, name in enumerate(table.class_names)
        },
        "class_weights": {
            name: float(cw.weights[k]) for k, name in enumerate(table.class_names)
        },
    }
    _finish(cfg, out, "prepare", report)
    return report


def _load_tables(out: Path):
    return ingest.load_table(_completed(out, "prepare") / TRAIN_TABLE), ingest.load_table(out / TEST_TABLE)


def cmd_train(cfg: RunConfig) -> metrics.EvalReport:
    """Train with inverse-frequency sample weights and report test metrics."""
    cfg, out = _outdir(cfg, "train")
    ens, report = metrics.fit_and_evaluate(*_load_tables(out), cfg.hyperparams())
    gbt.save_model(ens, out / MODEL_FILE)
    _finish(cfg, out, "train", metrics.report_to_dict(report))
    return report


def cmd_explain(cfg: RunConfig) -> explain.ShapMatrix:
    """Attribute margins over the chosen rows, verify additivity, and export
    values and rankings."""
    cfg, out = _outdir(cfg, "explain")
    ens = gbt.load_model(_completed(out, "train") / MODEL_FILE)
    table = ingest.load_table(_completed(out, "prepare") / (TEST_TABLE if cfg.explain_rows == "test" else TRAIN_TABLE))
    shap = explain.tree_shap(ens, table)
    reconstructed = shap.base_values + shap.values.sum(axis=2)
    error = np.abs(reconstructed - gbt.predict_margins(ens, table.features)).max(initial=0.0)
    if not error <= ADDITIVITY_TOLERANCE:
        raise ValueError(
            f"attributions miss the margins by {error:.3g}, above {ADDITIVITY_TOLERANCE:g}"
        )
    explain.write_shap_csv(shap, ens.class_names, out / SHAP_VALUES)
    explain.write_ranking_csv(explain.global_importance(shap), out / GLOBAL_RANKING)
    for k, name in enumerate(ens.class_names):
        explain.write_ranking_csv(
            explain.per_class_importance(shap, k), out / _class_ranking_file(k, name)
        )
    _finish(cfg, out, "explain", {"base_values": dict(zip(ens.class_names, shap.base_values.tolist()))})
    return shap


def _run_method(cfg: RunConfig, method: str, out: Path, train_t, test_t) -> selection.SelectionResult:
    """One method's selection; its ``fit`` is the reduced model trained on the
    train table and scored on the test table."""
    hp = cfg.hyperparams()
    if method == "shap":
        if not _done(out, "explain"):  # the ranking is explain's: explain runs first
            cmd_explain(cfg)
        # Test scope scores candidate subsets on the final tables, so the pass's
        # own fit is the reduced model; validation scope on a carve-out of the train table.
        test_scope = cfg.evaluation_scope == "test"
        sel_train, eval_t = ((train_t, test_t) if test_scope
                             else ingest.stratified_split(train_t, cfg.carve_spec()))
        result = selection.forward_select(
            explain.read_ranking_csv(out / GLOBAL_RANKING), sel_train, eval_t, hp,
            max_candidates=cfg.max_candidates, patience=cfg.patience,
            evaluation_scope=cfg.evaluation_scope,
        )
        if test_scope or not result.selected:
            return result
        selected = result.selected
    else:
        selected = selection.filter_select(selection.FILTER_SCORERS[method](train_t), cfg.k_for_filters)
    fit = metrics.fit_and_evaluate(train_t.restrict(selected), test_t.restrict(selected), hp)
    if method == "shap":
        return replace(result, fit=fit)
    return selection.SelectionResult(trace=[], selected=selected, f1_best=fit[1].macro.f1,
                                     evaluation_scope="test", method=method, fit=fit)


def cmd_select(cfg: RunConfig, compare: bool = False) -> dict:
    """Select features, retrain the reduced model, and report test metrics."""
    cfg, out = _outdir(cfg, "select")
    for name in [SELECTED_MODEL, COMPARISON, *map(_selection_file, SELECTION_METHODS)]:
        (out / name).unlink(missing_ok=True)
    train_t, test_t = _load_tables(out)
    if (compare or cfg.method != "shap") and cfg.k_for_filters > train_t.n_features:  # a filter method runs
        raise ValueError(f"k_for_filters = {cfg.k_for_filters} exceeds the {train_t.n_features} features")
    methods, rows = SELECTION_METHODS if compare else (cfg.method,), []
    def run(method):
        return _run_method(cfg, method, out, train_t, test_t)
    # Under compare, methods[1:] are the filter methods: they do not read shap's fit, so a child may make them.
    with ingest.forked(run, methods[1:]) as filtered:
        for method, result in zip(methods, chain([run(methods[0])], filtered)):
            _write_json(selection.selection_to_dict(result), out / _selection_file(method))
            if result.fit is None:
                doc, macro = {"note": "no features selected"}, metrics.Averages(0.0, 0.0, 0.0)
            else:
                ens, report = result.fit
                doc, macro = metrics.report_to_dict(report), report.macro
                if method == cfg.method:
                    gbt.save_model(ens, out / SELECTED_MODEL)
            if method == cfg.method:
                primary_report = {**doc, "selected_features": list(result.selected)}
            rows.append([method, ";".join(result.selected), *map(repr, astuple(macro))])
    if compare:
        with open(out / COMPARISON, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "features", "macro_precision", "macro_recall", "macro_f1"])
            writer.writerows(rows)
    _finish(cfg, out, "select", primary_report)
    return primary_report


def cmd_pipeline(cfg: RunConfig, compare: bool = False) -> None:
    """Run every stage in order, skipping each stage whose report exists; under
    ``compare``, select also runs when ``comparison.csv`` is missing.

    Refuses a directory whose recorded configuration differs from this run's
    in anything but the output directory, since its artifacts are stale.
    """
    cfg, out = _outdir(cfg)
    for stage, run in (("prepare", cmd_prepare), ("train", cmd_train), ("explain", cmd_explain)):
        if not _done(out, stage):
            run(cfg)
    if not _done(out, "select") or compare and not (out / COMPARISON).exists():
        cmd_select(cfg, compare=compare)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error, which main reports as one JSON line
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flowshap",
        description="Boosted-tree flow classification with Shapley-ranked feature selection",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI configuration file")
    common.add_argument("--input", dest=FIELD.input_csv, help="input flow CSV")
    common.add_argument("--output-dir", help="artifact directory")
    common.add_argument("--seed", help="master seed for every stage")

    select_opts = argparse.ArgumentParser(add_help=False)
    select_opts.add_argument("--method", help=f"one of {', '.join(SELECTION_METHODS)}")
    select_opts.add_argument("--k", dest=FIELD.k_for_filters, help="feature count for filter methods")
    select_opts.add_argument("--max-candidates")
    select_opts.add_argument("--eval-scope", dest=FIELD.evaluation_scope,
                             help="where candidate subsets are scored: validation or test")
    select_opts.add_argument(
        "--paper-faithful", action="store_const", const="test", dest=FIELD.evaluation_scope,
        help="score candidate subsets on the held-out test set (same as --eval-scope test)",
    )
    select_opts.add_argument(
        "--compare", action="store_true",
        help="run every selection method and write a comparison table",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", parents=[common],
                   help="parse, clean, and split the input CSV").set_defaults(run=cmd_prepare)
    sub.add_parser("train", parents=[common], help="train the full-feature model").set_defaults(run=cmd_train)
    sub.add_parser("explain", parents=[common], help="export attributions and rankings").set_defaults(run=cmd_explain)
    sub.add_parser("select", parents=[common, select_opts],
                   help="select features and retrain").set_defaults(run=cmd_select)
    sub.add_parser("pipeline", parents=[common, select_opts],
                   help="run all stages in order").set_defaults(run=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = build_config(args)
        args.run(cfg, **({"compare": args.compare} if "compare" in args else {}))
    except Exception as exc:  # single structured diagnostic line, nonzero exit
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
