"""Run one flowshap stage with spans around the calls into each module.

Usage: python perfbench/tracer.py SPANS_JSON RUN_ID <flowshap cli arguments>

The wrappers are installed from outside the package: every public module
attribute in TRACED is replaced by a timing wrapper, in its own module and in
every other flowshap module (and module-level dict) that holds a reference to
the same function object. The stage then runs through ``cli.main``, which
dispatches to ``cli.cmd_*``. Spans stay in memory and are written to
SPANS_JSON when the stage ends, as ``[name, start, end, parent, run_id, info]``
with ``perf_counter`` seconds and the parent's span index (-1 at the root).
"""

import functools
import json
import resource
import sys
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ensemble_info(ens, table, hp):
    leaves = sum(int((t.feature < 0).sum()) for t in ens.trees)
    nodes = sum(t.n_nodes for t in ens.trees)
    return {"trees": len(ens.trees), "nodes": nodes, "leaves": leaves,
            "rounds": hp.n_estimators, "rows": table.n_rows, "features": table.n_features}


# (dotted attribute, info callback taking (result, *args)); the callback adds
# the counts a span's layer metrics are normalised by.
TRACED = (
    ("cli.cmd_prepare", None),
    ("cli.cmd_train", None),
    ("cli.cmd_explain", None),
    ("cli.cmd_select", None),
    ("ingest.load_csv", lambda raw, *a, **k: {"rows": raw.row_count, "maxrss_mb": _maxrss_mb()}),
    ("ingest.preprocess", lambda table, *a, **k: {"rows": table.n_rows, "maxrss_mb": _maxrss_mb()}),
    ("ingest.stratified_split", None),
    ("ingest.save_table", None),
    ("ingest.load_table", None),
    ("gbt.train", lambda ens, table, hp, *a, **k: _ensemble_info(ens, table, hp)),
    ("gbt.Tree.predict", None),
    ("gbt.predict_margins", lambda out, *a, **k: {"rows": int(out.shape[0])}),
    ("gbt.predict_classes", None),
    ("gbt.save_model", None),
    ("gbt.load_model", None),
    ("explain.tree_shap", lambda shap, ens, *a, **k: {"rows": int(shap.values.shape[0]),
                                                      "trees": len(ens.trees)}),
    ("explain.write_shap_csv", lambda _, shap, *a, **k: {"lines": int(shap.values.size)}),
    ("explain.global_importance", None),
    ("explain.per_class_importance", None),
    ("selection.forward_select", lambda res, *a, **k: {
        "trials": len(res.trace), "accepted": sum(t.accepted for t in res.trace)}),
    ("selection.correlation_scores", None),
    ("selection.chi_square_scores", None),
    ("selection.anova_scores", None),
    ("metrics.timed_evaluate", None),
    ("metrics.macro_f1", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, info):
        spans, stack, run_id = self.spans, self.stack, self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, run_id, None]
            if info is not None:
                spans[index][5] = info(result, *args, **kwargs)
            return result

        return traced

    def install(self, modules) -> None:
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for dotted, info in TRACED:
            owner_path, attr = dotted.rsplit(".", 1)
            owner = by_name[owner_path.split(".")[0]]
            for part in owner_path.split(".")[1:]:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(dotted, original, info)
            setattr(owner, attr, wrapper)
            # Copies imported by name, and registries such as FILTER_SCORERS.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper


def main(argv) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import flowshap
    from flowshap import cli, config, explain, gbt, ingest, metrics, selection

    tracer = Tracer(run_id)
    tracer.install([flowshap, cli, config, explain, gbt, ingest, metrics, selection])
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": run_id, "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
