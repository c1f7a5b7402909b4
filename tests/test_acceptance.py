"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget. Run with ``pytest -s``.

The dataset-backed criterion is optional: it runs only when the environment
variable FLOWSHAP_SCVIC_CSV points at a local copy of the flow CSV.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

import flowshap as fs
from flowshap import cli
from flowshap.config import RunConfig

from conftest import SCVIC_TRAIN_COUNTS, naive_report, replay_forward_trace, write_flow_csv

from test_gbt import fd_grad_hess


@contextmanager
def criterion(name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s over {budget_seconds}s budget"
    print(f"[PASS] {name} ({elapsed:.1f}s)")


def trained_fixture(n, m, K, rounds, depth, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    centers = rng.normal(scale=1.5, size=(K, m))
    y = rng.integers(0, K, size=n)
    X += 0.9 * centers[y]
    table = fs.FlowTable(
        feature_names=[f"f{i}" for i in range(m)],
        features=X,
        labels=y,
        class_names=[f"c{k}" for k in range(K)],
        sample_weights=np.ones(n),
    )
    ens = fs.train(table, fs.Hyperparams(n_estimators=rounds, max_depth=depth))
    return ens, table


def test_shap_local_accuracy():
    # fixtures span depth 1-6, rounds 1-50, classes 2-6
    specs = [
        (80, 6, 2, 50, 1, 0),
        (80, 7, 3, 12, 2, 1),
        (70, 8, 4, 6, 3, 2),
        (60, 9, 5, 3, 4, 3),
        (60, 10, 6, 1, 6, 4),
        (50, 6, 3, 2, 5, 5),
    ]
    with criterion("shap local accuracy <= 1e-6", budget_seconds=30):
        for spec in specs:
            ens, table = trained_fixture(*spec)
            shap = fs.tree_shap(ens, table)
            margins = fs.predict_margins(ens, table.features)
            recon = shap.base_values[None, :] + shap.values.sum(axis=2)
            assert np.abs(recon - margins).max() <= 1e-6


def test_shapley_oracle_equivalence():
    with criterion("exhaustive shapley oracle <= 1e-8", budget_seconds=60):
        total = 0
        for n, m, K, rounds, depth, seed in [(120, 8, 2, 15, 2, 10), (100, 12, 3, 6, 3, 11)]:
            ens, table = trained_fixture(n, m, K, rounds, depth, seed)
            assert len(ens.trees) <= 50 and m <= 12
            shap = fs.tree_shap(ens, table)
            for s in range(n):
                for k in range(K):
                    phi, phi0 = fs.brute_force_shapley(ens, table.features[s], k)
                    assert np.abs(shap.values[s, k] - phi).max() <= 1e-8
                    assert abs(shap.base_values[k] - phi0) <= 1e-8
            total += n
        assert total >= 200


def test_gradient_hessian_finite_differences():
    with criterion("softmax gradient/hessian vs finite differences", budget_seconds=5):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            K = int(rng.integers(2, 7))
            margins = rng.normal(scale=2, size=K)
            y = int(rng.integers(K))
            w = float(rng.uniform(0.2, 4))
            g, h = fs.softmax_grad_hess(margins, y, w)
            g_fd, h_fd = fd_grad_hess(margins, y, w, step=1e-5)
            assert (np.abs(g - g_fd) / (np.abs(g_fd) + 1e-3 * w)).max() < 1e-4
            assert (np.abs(h - h_fd) / (np.abs(h_fd) + 1e-3 * w)).max() < 1e-4


def test_class_weight_identity():
    with criterion("class-weight identity on the published histogram"):
        names = sorted(SCVIC_TRAIN_COUNTS)
        counts = np.array([SCVIC_TRAIN_COUNTS[n] for n in names])
        labels = np.repeat(np.arange(6), counts)
        cw = fs.class_weights(labels, 6)
        total = counts.sum()
        # weight_i * K * count_i == total
        recovered = cw.weights * 6 * counts
        assert np.abs(recovered - total).max() / total <= 1e-9
        ratio = cw.weights[names.index("Initial Compromise")] / cw.weights[names.index("Normal Traffic")]
        assert abs(ratio - 246253 / 120) / (246253 / 120) <= 1e-9


def test_metrics_match_naive_loop():
    with criterion("metric suite vs naive per-sample loop"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            K = int(rng.integers(2, 8))
            n = int(rng.integers(1, 150))
            y_true = rng.integers(0, K, n)
            y_pred = rng.integers(0, K, n)
            cm = fs.confusion(y_true, y_pred, K)
            per_class = fs.per_class_metrics(cm)
            accuracy, macro, weighted = fs.aggregate(per_class)
            ref_acc, ref_pc, ref_macro, ref_weighted = naive_report(y_true, y_pred, K)
            for got, ref in zip(per_class, ref_pc):
                assert got.support == ref[3]  # counts exact
                assert abs(got.precision - ref[0]) <= 1e-12
                assert abs(got.recall - ref[1]) <= 1e-12
                assert abs(got.f1 - ref[2]) <= 1e-12
            assert abs(accuracy - ref_acc) <= 1e-12
            assert abs(macro.f1 - ref_macro[2]) <= 1e-12
            assert abs(weighted.f1 - ref_weighted[2]) <= 1e-12


def test_forward_selection_conformance():
    with criterion("strict-improvement loop conformance over 50 random traces"):
        rng = np.random.default_rng(31337)
        for _ in range(50):
            size = int(rng.integers(3, 30))
            names = [f"f{i}" for i in range(size)]
            values = rng.choice(
                np.round(rng.uniform(0, 1, size=8), 3), size=size
            ).tolist()
            it = iter(values)
            trace, selected, best = fs.run_forward_pass(names, lambda s: next(it))
            replay_selected, replay_best = replay_forward_trace(trace)
            assert replay_selected == selected
            assert replay_best == best
            accepted = [t.f1 for t in trace if t.accepted]
            assert all(a < b for a, b in zip(accepted, accepted[1:])) or len(accepted) <= 1


def planted_apt_table(seed=2024):
    """20 features (5 informative), 6 classes, 500:1 imbalance."""
    rng = np.random.default_rng(seed)
    counts = [1500, 3, 30, 60, 9, 6]
    centers = np.zeros((6, 5))
    for k in range(1, 6):
        centers[k, k - 1] = 3.0
    blocks, labels = [], []
    for k, c in enumerate(counts):
        informative = rng.normal(scale=0.3, size=(c, 5)) + centers[k]
        noise = rng.normal(size=(c, 15))
        blocks.append(np.hstack([informative, noise]))
        labels.extend([k] * c)
    X = np.vstack(blocks)
    y = np.array(labels)
    perm = rng.permutation(len(y))
    return fs.FlowTable(
        feature_names=[f"f{i:02d}" for i in range(20)],
        features=X[perm],
        labels=y[perm],
        class_names=[f"c{k}" for k in range(6)],
        sample_weights=np.ones(len(y)),
    )


def test_planted_feature_recovery():
    with criterion("planted-feature recovery and determinism", budget_seconds=180):
        table = planted_apt_table()
        train, test = fs.stratified_split(table, fs.SplitSpec(train_fraction=0.8, seed=1))
        hp = fs.Hyperparams(n_estimators=12, max_depth=3, seed=5)
        weighted = fs.apply_sample_weights(train, fs.class_weights(train.labels, 6))
        full_model = fs.train(weighted, hp)
        full_f1 = fs.macro_f1(test.labels, fs.predict_classes(full_model, test.features), 6)
        ranking = fs.global_importance(fs.tree_shap(full_model, test))

        runs = []
        for _ in range(3):
            result = fs.forward_select(ranking, train, test, hp, evaluation_scope="test")
            runs.append((tuple(result.selected), result.f1_best, tuple(result.trace)))
        assert runs[0] == runs[1] == runs[2]
        selected, f1_best, _ = runs[0]
        assert len(selected) <= 8
        assert f1_best >= 0.99 * full_f1


def _strip_timing(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


def test_pipeline_determinism(tmp_path):
    with criterion("byte-identical pipeline reruns (timing excluded)"):
        csv_path = tmp_path / "flows.csv"
        write_flow_csv(csv_path, {"Benign": 40, "Pivot": 20, "Recon": 20}, seed=6)
        reports = [cli.TRAIN_REPORT, cli.SELECT_REPORT]
        exact = [
            cli.MODEL_FILE, cli.SELECTED_MODEL, cli.PREPARE_REPORT,
            cli._selection_file("shap"), cli.SHAP_VALUES, cli.SHAP_BASES,
            cli.GLOBAL_RANKING,
        ]
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = RunConfig(
                input_csv=str(csv_path), output_dir=str(out), seed=11,
                n_estimators=3, max_depth=3, max_candidates=5,
            )
            cli.cmd_pipeline(cfg)
            outs.append(out)
        a, b = outs
        for name in exact:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        for name in reports:
            assert _strip_timing(a / name) == _strip_timing(b / name), name


SCVIC_ENV = "FLOWSHAP_SCVIC_CSV"


@pytest.mark.skipif(SCVIC_ENV not in os.environ, reason=f"set {SCVIC_ENV} to run the dataset-backed criterion")
def test_dataset_backed_selection(tmp_path):
    with criterion("dataset-backed selection (77 features, F1 >= 0.90)", budget_seconds=1800):
        cfg = RunConfig(
            input_csv=os.environ[SCVIC_ENV],
            output_dir=str(tmp_path / "scvic"),
            seed=42,
            evaluation_scope="test",  # score candidate subsets on the held-out split
            max_candidates=20,
        )
        report = cli.cmd_prepare(cfg)
        assert report["features_kept"] == 77
        cli.cmd_train(cfg)
        cli.cmd_explain(cfg)
        cli.cmd_select(cfg)
        doc = json.loads((tmp_path / "scvic" / cli.SELECT_REPORT).read_text())
        assert len(doc["selected_features"]) <= 12
        assert doc["macro"]["f1"] >= 0.90
