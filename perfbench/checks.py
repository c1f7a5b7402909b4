"""Output checks, artifact digests and per-layer metrics for one benchmark run.

Usage: python perfbench/checks.py REQUEST_JSON

REQUEST_JSON lists the run's repetition directories, with the stage wall
times of each traced one. The result is printed as one JSON line. ``run.py``
runs this in a child process so that the benchmark's own process never holds
the artifacts in memory: a child's peak RSS as reported by ``wait4`` includes
the peak of the process that started it.
"""

import csv
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from flowshap import gbt, ingest

ADDITIVITY_TOL = 1e-6
# Report fields that hold wall-clock time and so differ between identical runs.
TIMING_FIELDS = ("timing",)
FEATURE_COUNT = 77


# --------------------------------------------------------------------------
# Output checks


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def artifact_digests(out: Path) -> dict:
    """SHA-256 of every deterministic artifact; report timing fields left out."""
    digests = {}
    for path in sorted(out.iterdir()):
        name = path.name
        if name.endswith(".npz"):
            h = hashlib.sha256()
            with np.load(path, allow_pickle=False) as data:
                for key in sorted(data.files):
                    arr = data[key]
                    h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                    h.update(np.ascontiguousarray(arr).tobytes())
            digests[name] = h.hexdigest()
        elif name.endswith("_report.json"):
            doc = json.loads(path.read_text(encoding="utf-8"))
            for key in TIMING_FIELDS:
                doc.pop(key, None)
            digests[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        elif name != "effective_config.ini":
            digests[name] = _sha256_file(path)
    return digests


def check_additivity(out: Path) -> float:
    """Max |base + sum(phi) - margin| over explained rows and classes."""
    ens = gbt.load_model(out / "model.json")
    table = ingest.load_table(out / "test_table.npz")
    margins = gbt.predict_margins(ens, table.features)
    n, K = margins.shape
    M = len(ens.feature_names)
    class_index = {name: k for k, name in enumerate(ens.class_names)}
    feature_index = {name: i for i, name in enumerate(ens.feature_names)}
    bases = json.loads((out / "shap_base_values.json").read_text(encoding="utf-8"))["base_values"]
    totals = np.zeros((n, K))
    for name, value in bases.items():
        totals[:, class_index[name]] += value
    seen = np.zeros((n, K, M), dtype=bool)
    with open(out / "shap_values.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["sample_index", "class", "feature", "phi"]:
            raise ValueError("shap_values.csv has an unexpected header")
        for s, cls, feat, phi in reader:
            s, k, i = int(s), class_index[cls], feature_index[feat]
            if seen[s, k, i]:
                raise ValueError(f"duplicate attribution for row {s}, {cls}, {feat}")
            seen[s, k, i] = True
            totals[s, k] += float(phi)
    if not seen.all():
        raise ValueError("shap_values.csv misses attributions")
    return float(np.abs(totals - margins).max())


def check_selection(out: Path) -> None:
    """Replay the strict-improvement rule over the trace of the shap pass."""
    doc = json.loads((out / "selection_shap.json").read_text(encoding="utf-8"))
    best, chosen = 0.0, []
    for trial in doc["trace"]:
        accepted = trial["f1"] > best
        if accepted != trial["accepted"]:
            raise ValueError(f"trial {trial['feature']!r} has accepted={trial['accepted']}")
        if accepted:
            best, chosen = trial["f1"], chosen + [trial["feature"]]
    if chosen != doc["selected"] or best != doc["f1_best"]:
        raise ValueError("replayed trace does not give the recorded selection")
    report = json.loads((out / "select_report.json").read_text(encoding="utf-8"))
    if report["selected_features"] != doc["selected"]:
        raise ValueError("select_report.json disagrees with selection_shap.json")


def check_prepare(out: Path, clean_rows: int, dirty_rows: int) -> None:
    report = json.loads((out / "prepare_report.json").read_text(encoding="utf-8"))
    if report["rows_in"] != clean_rows + dirty_rows or report["rows_dropped"] != dirty_rows:
        raise ValueError(f"prepare kept {report['rows_in'] - report['rows_dropped']} of "
                         f"{report['rows_in']} rows; expected {clean_rows} of {clean_rows + dirty_rows}")
    if report["train_rows"] + report["test_rows"] != clean_rows:
        raise ValueError("train and test rows do not add up to the kept rows")
    if report["features_kept"] != FEATURE_COUNT:
        raise ValueError(f"prepare kept {report['features_kept']} features")


def _macro_f1(out: Path, name: str) -> float:
    return json.loads((out / name).read_text(encoding="utf-8"))["macro"]["f1"]


def check_outputs(stages, out: Path, rows: int, dirty_rows: int) -> dict:
    """Run every output check on one repetition; return {check: error or None} and values."""
    results, values = {}, {}

    def attempt(name, fn):
        try:
            value = fn()
        except Exception as exc:  # a failed check is counted, not fatal
            results[name] = f"{type(exc).__name__}: {exc}"
            return None
        results[name] = None
        return value

    attempt("prepare_rows", lambda: check_prepare(out, rows, dirty_rows))
    if "train" in stages:
        values["macro_f1"] = attempt("train_report", lambda: _macro_f1(out, "train_report.json"))
    if "explain" in stages:
        err = attempt("additivity", lambda: check_additivity(out))
        values["additivity_max_abs_err"] = err
        if err is not None and not err <= ADDITIVITY_TOL:
            results["additivity"] = f"max abs error {err!r} exceeds {ADDITIVITY_TOL}"
    if "select" in stages:
        attempt("selection_replay", lambda: check_selection(out))
        values["selected_macro_f1"] = attempt(
            "select_report", lambda: _macro_f1(out, "select_report.json"))
    return {"results": results, "values": values}


# --------------------------------------------------------------------------
# Per-layer metrics from spans


def _load_spans(rep_dir: Path, stages) -> dict:
    spans = {}
    for stage in stages:
        doc = json.loads((rep_dir / f"spans-{stage}.json").read_text(encoding="utf-8"))
        spans[stage] = doc["spans"]
    return spans


def _dur(span) -> float:
    return span[2] - span[1]


def layer_metrics(spans_by_stage: dict, stage_walls: dict, out: Path) -> dict:
    """Per-layer metrics of one traced repetition."""
    all_spans = [s for spans in spans_by_stage.values() for s in spans]

    def named(name):
        return [s for s in all_spans if s[0] == name]

    def total(*names):
        return sum(_dur(s) for n in names for s in named(n))

    def info_sum(name, key):
        return sum(s[5][key] for s in named(name))

    def info_first(name, key):
        found = named(name)
        return found[0][5][key] if found else 0

    def size(name):
        path = out / name
        return path.stat().st_size if path.exists() else 0

    m = {}
    m["ingest.load_csv_s"] = total("ingest.load_csv")
    m["ingest.preprocess_s"] = total("ingest.preprocess")
    m["ingest.split_s"] = total("ingest.stratified_split")
    m["ingest.save_table_s"] = total("ingest.save_table")
    m["ingest.load_table_s"] = total("ingest.load_table")
    m["ingest.rows_in"] = info_first("ingest.load_csv", "rows")
    m["ingest.rows_kept"] = info_first("ingest.preprocess", "rows")
    m["ingest.table_bytes"] = size("train_table.npz") + size("test_table.npz")
    m["ingest.maxrss_after_load_csv_mb"] = info_first("ingest.load_csv", "maxrss_mb")
    m["ingest.maxrss_after_preprocess_mb"] = info_first("ingest.preprocess", "maxrss_mb")

    # Tree.predict time inside train calls, by walking each span's parents.
    train_predict = 0.0
    final_refit = 0.0
    for spans in spans_by_stage.values():
        def inside(span, name, spans=spans):
            parent = span[3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return True
                parent = spans[parent][3]
            return False

        for s in spans:
            if s[0] == "gbt.Tree.predict" and inside(s, "gbt.train"):
                train_predict += _dur(s)
            if s[0] == "gbt.train" and s[3] >= 0 and spans[s[3]][0] == "cli.cmd_select":
                final_refit += _dur(s)

    train_s = total("gbt.train")
    rounds = info_sum("gbt.train", "rounds")
    nodes = info_sum("gbt.train", "nodes")
    m["gbt.train_s"] = train_s
    m["gbt.train_calls"] = len(named("gbt.train"))
    m["gbt.train_self_s"] = train_s - train_predict
    m["gbt.tree_predict_s"] = total("gbt.Tree.predict")
    m["gbt.round_s"] = train_s / rounds if rounds else 0.0
    m["gbt.trees"] = info_sum("gbt.train", "trees")
    m["gbt.nodes"] = nodes
    m["gbt.leaves"] = info_sum("gbt.train", "leaves")
    m["gbt.self_s_per_node"] = m["gbt.train_self_s"] / nodes if nodes else 0.0
    predicted_rows = info_sum("gbt.predict_margins", "rows")
    m["gbt.predict_margins_us_per_row"] = (
        total("gbt.predict_margins") / predicted_rows * 1e6 if predicted_rows else 0.0)
    m["gbt.save_model_s"] = total("gbt.save_model")
    m["gbt.load_model_s"] = total("gbt.load_model")
    m["gbt.model_bytes"] = size("model.json")

    shap_rows = info_sum("explain.tree_shap", "rows")
    shap_trees = info_first("explain.tree_shap", "trees")
    lines = info_sum("explain.write_shap_csv", "lines")
    m["explain.tree_shap_s"] = total("explain.tree_shap")
    m["explain.rows"] = shap_rows
    m["explain.trees"] = shap_trees
    m["explain.tree_shap_us_per_row_tree"] = (
        m["explain.tree_shap_s"] / (shap_rows * shap_trees) * 1e6 if shap_rows and shap_trees else 0.0)
    m["explain.write_shap_csv_s"] = total("explain.write_shap_csv")
    m["explain.write_shap_csv_us_per_line"] = (
        m["explain.write_shap_csv_s"] / lines * 1e6 if lines else 0.0)
    m["explain.shap_csv_bytes"] = size("shap_values.csv")
    m["explain.importance_s"] = total("explain.global_importance", "explain.per_class_importance")

    trials = info_sum("selection.forward_select", "trials")
    m["selection.forward_select_s"] = total("selection.forward_select")
    m["selection.trials"] = trials
    m["selection.accepted"] = info_sum("selection.forward_select", "accepted")
    m["selection.trial_s"] = m["selection.forward_select_s"] / trials if trials else 0.0
    m["selection.trial_features_mean"] = _trial_features_mean(out)
    m["selection.filter_scores_s"] = total(
        "selection.correlation_scores", "selection.chi_square_scores", "selection.anova_scores")
    m["selection.final_refit_s"] = final_refit

    m["metrics.timed_evaluate_s"] = total("metrics.timed_evaluate")
    m["metrics.macro_f1_calls"] = len(named("metrics.macro_f1"))

    for stage in ("prepare", "train", "explain", "select"):
        key = f"cli.{stage}_self_s"
        spans = spans_by_stage.get(stage)
        if spans is None:
            m[key] = 0.0
            continue
        roots = [i for i, s in enumerate(spans) if s[0] == f"cli.cmd_{stage}"]
        children = sum(_dur(s) for s in spans if s[3] in roots)
        m[key] = stage_walls[stage] - children
    return m


def _trial_features_mean(out: Path) -> float:
    path = out / "selection_shap.json"
    if not path.exists():
        return 0.0
    trace = json.loads(path.read_text(encoding="utf-8"))["trace"]
    sizes, accepted = [], 0
    for trial in trace:
        sizes.append(accepted + 1)
        accepted += trial["accepted"]
    return sum(sizes) / len(sizes) if sizes else 0.0


def root_split_probe(out: Path) -> tuple:
    """Median seconds of one find_best_split over all training rows with round-0
    gradients, and the number of (row, feature) cells it scans."""
    train = ingest.load_table(out / "train_table.npz")
    K = len(train.class_names)
    weights = ingest.class_weights(train.labels, K).weights[train.labels]
    # At round 0 every margin is base_score, so the softmax is uniform.
    p = 1.0 / K
    g = weights * (p - (train.labels == 0))
    h = weights * p * (1.0 - p)
    rows = np.arange(train.n_rows)
    hp = gbt.Hyperparams()
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        gbt.find_best_split(rows, g, h, train, hp)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), train.n_rows * train.n_features


def main(request: dict) -> dict:
    """Digests of every repetition, output checks on the first repetition of
    each input, layers of traced ones."""
    stages = request["stages"]
    reps, results, per_input = [], {}, []
    for rep in request["reps"]:
        rep_dir = Path(rep["rep_dir"])
        out = rep_dir / "out"
        inspected = {"digests": artifact_digests(out)}
        if rep["stage_walls"] is not None:
            layers = layer_metrics(_load_spans(rep_dir, stages), rep["stage_walls"], out)
            probe_s, cells = root_split_probe(out) if "train" in stages else (0.0, 1)
            layers["gbt.root_split_s"] = probe_s
            layers["gbt.root_split_ns_per_row_feature"] = probe_s / cells * 1e9
            inspected["layers"] = layers
        reps.append(inspected)
        if rep["part"] == len(per_input):  # the first cycle runs the inputs in order
            checked = check_outputs(stages, out, request["rows"], request["dirty_rows"])
            results.update({f"input{rep['part']}.{k}": v for k, v in checked["results"].items()})
            per_input.append(checked["values"])
    # Test macro F1 is averaged over the inputs, like the times; the
    # additivity error is the worst one.
    values = {}
    for key in per_input[0]:
        found = [v[key] for v in per_input]
        if None not in found:
            values[key] = max(found) if key == "additivity_max_abs_err" else statistics.fmean(found)
    return {"results": results, "values": values, "reps": reps}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
