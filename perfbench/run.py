"""Outside-in benchmark of the flowshap prepare -> train -> explain -> select pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scvic-pipeline --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

The benchmark generates the workload's SCVIC-shaped flow CSVs from
``--seed`` (cached under ``.perfbench/cache``), then runs the workload's stage
commands (``python -m flowshap.cli <stage> --config run.ini``) one after
another, each in a fresh process and in a fresh, empty artifact directory per
repetition. One cycle runs the workload once on each of its inputs; cycles
repeat until ``--seconds`` are used up. It checks the outputs and prints a
table followed by one JSON line with means over the repetitions.

With ``--trace 0`` the JSON holds the end-to-end metrics. With ``--trace 1``
repetitions on the first input alternate between plain stage commands and
stage commands run under ``perfbench/tracer.py``, and the JSON holds per-layer
metrics (medians over the traced repetitions) derived from the tracer's
spans. A full record of every run (environment, input SHA-256s, artifact
digests, every metric) is written to ``.perfbench/results``.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

PROGRAM_SEED = 42
ROUNDS = 4  # boosting rounds, written to run.ini only when the workload trains
SETUP_SAMPLES = 7  # at least; two more are taken before every repetition
STAGE_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    rows: int
    stages: tuple
    inputs: int  # independent CSVs per seed, each run once per cycle


# Sizes are scaled down from SCVIC scale so that several repetitions fit in
# one run, keeping the split of work between layers that each workload was
# chosen for (BENCHMARK.json gives the reasons, perfbench/README.md the shares).
# How much work a pipeline input causes (tree sizes, features kept by forward
# selection) depends on the data, so scvic-pipeline averages three inputs.
WORKLOADS = {
    "scvic-pipeline": Workload(rows=1200, stages=("prepare", "train", "explain", "select"),
                               inputs=3),
    "prepare-large": Workload(rows=30000, stages=("prepare",), inputs=1),
}

SELECTION_METHODS = ("shap", "correlation", "chi_square", "anova")
STAGE_OUTPUTS = {
    "prepare": ["train_table.npz", "test_table.npz", "prepare_report.json"],
    "train": ["model.json", "train_report.json"],
    "explain": ["shap_values.csv", "shap_base_values.json", "importance_global.csv"],
    "select": [f"selection_{m}.json" for m in SELECTION_METHODS]
    + ["model_selected.json", "select_report.json", "comparison.csv"],
}
CLASS_RANKING_GLOB = "importance_class_*.csv"


# --------------------------------------------------------------------------
# Processes


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    problems: list = field(default_factory=list)


def _python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv, log_path: Path, timeout: float = STAGE_TIMEOUT_S):
    """Run argv to completion; return (wall s, CPU s, peak RSS MB of it alone, exit code).

    The peak RSS comes from ``os.wait4`` on this child only, so it is not
    mixed with the peaks of earlier children.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=_python_env(), cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], timeout)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status) if ready else -signal.SIGKILL
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def setup_sample(log_path: Path) -> float:
    """Seconds for a fresh interpreter to start and import flowshap."""
    wall, _, _, code = run_process([sys.executable, "-c", "import flowshap"], log_path)
    if code != 0:
        raise RuntimeError(f"import flowshap failed; see {log_path}")
    return wall


# --------------------------------------------------------------------------
# One repetition of a workload


def write_config(path: Path, csv_path: Path, out: Path, wl: Workload) -> None:
    text = f"[run]\ninput_csv = {csv_path}\nseed = {PROGRAM_SEED}\noutput_dir = {out}\n"
    if "train" in wl.stages:
        text += f"[hyperparams]\nn_estimators = {ROUNDS}\n"
    if "select" in wl.stages:
        text += "[selection]\nmax_candidates = 16\nevaluation_scope = validation\n"
    path.write_text(text, encoding="utf-8")


def _expected_outputs(out: Path, stage: str) -> list:
    paths = [out / name for name in STAGE_OUTPUTS[stage]]
    if stage == "explain":
        paths += sorted(out.glob(CLASS_RANKING_GLOB))
    return paths


def run_repetition(wl: Workload, rep_dir: Path, csv_path: Path, traced: bool, rep_id: str):
    """Run every stage of the workload into a fresh, empty artifact directory."""
    out = rep_dir / "out"
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    out.mkdir(parents=True)
    config = rep_dir / "run.ini"
    write_config(config, csv_path, out, wl)
    runs = []
    for stage in wl.stages:
        argv = ["-m", "flowshap.cli"]
        if traced:
            argv = [str(HERE / "tracer.py"), str(rep_dir / f"spans-{stage}.json"), rep_id]
        argv = [sys.executable, *argv, stage, "--config", str(config)]
        if stage == "select":
            argv += ["--method", "shap", "--compare"]
        before = {p.name for p in out.iterdir()}
        run = StageRun(stage, *run_process(argv, rep_dir / "stages.log"))
        if run.exit_code != 0:
            run.problems.append(f"{stage} exited with {run.exit_code}; see {rep_dir / 'stages.log'}")
        # Stale-output guard: each expected file must be new in this stage.
        for path in _expected_outputs(out, stage):
            if not path.exists():
                run.problems.append(f"{stage} did not write {path.name}")
            elif path.name in before:
                run.problems.append(f"{path.name} was not written by this {stage} run")
        if stage == "explain" and not list(out.glob(CLASS_RANKING_GLOB)):
            run.problems.append("explain wrote no per-class ranking")
        runs.append(run)
        if run.problems:
            break
    return runs


# --------------------------------------------------------------------------
# Output checks


def compare_with_earlier(digests: list, workload: str, seed: int, csv_shas: list) -> str | None:
    """Describe how digests differ from the latest earlier record on the same inputs.

    ``digests`` holds one dict per input. Information only, not a failed
    check: a change to the program may legitimately alter artifact bytes, and
    the earlier record may come from another version of it.
    """
    earlier = []
    for path in (STATE / "results").glob(f"{workload}-s{seed}-t*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        n = min(len(record["digests"]), len(digests))  # a traced run uses the first input only
        if n and [i["sha256"] for i in record["inputs"][:n]] == csv_shas[:n]:
            earlier.append((path.stat().st_mtime_ns, path.name, record["digests"][:n]))
    if not earlier:
        return None
    _, name, known = max(earlier)
    changed = sorted({f"input {part}: {k}" for part, (old, new) in enumerate(zip(known, digests))
                      for k in set(old) | set(new) if old.get(k) != new.get(k)})
    if not changed:
        return f"artifacts are byte-identical to {name}"
    return f"artifacts differ from {name}: {', '.join(changed)}"


# --------------------------------------------------------------------------
# Metric definitions

# Printed in the table only: each exists on some workloads only, or can be 0,
# so BENCHMARK.json does not list them.
REPORTED = {
    "prepare_s": "s", "train_s": "s", "explain_s": "s", "select_s": "s",
    "error_rate": "1", "macro_f1": "1", "selected_macro_f1": "1",
}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# --------------------------------------------------------------------------
# Driver


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_helper(args, log_path: Path) -> dict:
    """Run a benchmark helper script in a child process; return its JSON line."""
    proc = subprocess.run([sys.executable, *map(str, args)], env=_python_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
    with open(log_path, "a", encoding="utf-8") as log:
        log.write(proc.stderr)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise RuntimeError(f"{Path(args[0]).name}: {last[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    env = environment()
    run_dir = STATE / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        return _run_in(wl, workload, seed, seconds, trace, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


@dataclass
class Repetition:
    traced: bool
    part: int  # which of the workload's inputs
    runs: list  # [StageRun]
    rep_dir: Path


def _run_in(wl, workload, seed, seconds, trace, env, run_dir) -> dict:
    log = run_dir / "helpers.log"
    setup_samples = []
    # A traced run needs only the first input: its per-layer metrics have no bound.
    parts = range(1 if trace else wl.inputs)
    inputs = [run_helper([HERE / "flowgen.py", STATE / "cache", wl.rows, seed, part], log)
              for part in parts]

    attempted = failed = 0
    problems = []
    reps = []
    cycle_walls = []
    deadline = time.perf_counter() + seconds
    # Repeat whole cycles until the time is used up: the next cycle starts
    # only if at least half of a typical one fits before the deadline. There
    # are two cycles at least, so that every input runs twice and its
    # artifacts can be compared (a traced run: one plain, one traced).
    stopped = False  # by a failed stage
    while not stopped and (len(cycle_walls) < 2
                           or time.perf_counter() + _median(cycle_walls) / 2 < deadline):
        cycle_wall = 0.0
        for part in parts:
            traced = trace and len(reps) % 2 == 1
            if not trace:
                # Spread over the run, so that setup_s sees the same machine as wall_s.
                setup_samples += [setup_sample(log), setup_sample(log)]
            rep_dir = run_dir / f"rep{len(reps)}"
            start = time.perf_counter()
            stage_runs = run_repetition(wl, rep_dir, Path(inputs[part]["path"]), traced,
                                        f"{workload}-s{seed}-r{len(reps)}")
            cycle_wall += time.perf_counter() - start
            attempted += len(wl.stages)
            ok_stages = sum(1 for r in stage_runs if not r.problems)
            failed += len(wl.stages) - ok_stages
            problems += [p for r in stage_runs for p in r.problems]
            if ok_stages < len(wl.stages):
                stopped = True
                break
            reps.append(Repetition(traced, part, stage_runs, rep_dir))
        cycle_walls.append(cycle_wall)

    while not trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(log))

    checked = None
    digests = {}  # part -> digests of its first repetition
    notes = []
    layer_samples = []
    if reps:
        request = {
            "stages": list(wl.stages), "rows": wl.rows, "dirty_rows": inputs[0]["dirty_rows"],
            "reps": [{"rep_dir": str(rep.rep_dir), "part": rep.part,
                      "stage_walls": {r.stage: r.wall_s for r in rep.runs} if rep.traced else None}
                     for rep in reps],
        }
        try:
            checked = run_helper([HERE / "checks.py", json.dumps(request)], log)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            attempted += 1
            failed += 1
            problems.append(f"checks failed: {exc}")
    if checked:
        attempted += len(checked["results"])
        bad = {k: v for k, v in checked["results"].items() if v}
        failed += len(bad)
        problems += [f"check {k}: {v}" for k, v in bad.items()]
        # Every repetition of this run on the same input, traced or not, must
        # give the same bytes.
        for i, (rep, inspected) in enumerate(zip(reps, checked["reps"])):
            if "layers" in inspected:
                layer_samples.append(inspected["layers"])
            first = digests.setdefault(rep.part, inspected["digests"])
            if first is not inspected["digests"]:
                attempted += 1
                if inspected["digests"] != first:
                    failed += 1
                    problems.append(f"artifacts of repetition {i} differ from the first "
                                    f"on input {rep.part}")
    digests = [digests[part] for part in sorted(digests)]
    note = compare_with_earlier(digests, workload, seed, [i["sha256"] for i in inputs])
    if note:
        notes.append(note)

    # Means over whole cycles: every input counts the same, and the mean
    # follows the share of time the shared machine runs slow more smoothly
    # than a median over a handful of repetitions does.
    plain = [rep.runs for rep in reps if not rep.traced]
    traced_reps = [rep.runs for rep in reps if rep.traced]
    values = {
        "setup_s": _median(setup_samples),
        "wall_s": _mean([sum(r.wall_s for r in runs) for runs in plain]),
        "peak_rss_mb": _median([max(r.maxrss_mb for r in runs) for runs in plain]),
        **{f"{st}_s": _mean([r.wall_s for runs in plain for r in runs if r.stage == st])
           for st in wl.stages},
        "error_rate": failed / attempted,
    }
    if checked:
        values.update(checked["values"])

    layers = {}
    if trace and layer_samples:
        for name in layer_samples[0]:
            layers[name] = _median([s[name] for s in layer_samples])
        err = checked["values"].get("additivity_max_abs_err")
        layers["explain.additivity_max_abs_err"] = err if err is not None else 0.0
        traced_wall = _mean([sum(r.wall_s for r in runs) for runs in traced_reps])
        if traced_wall is not None and values["wall_s"] is not None:
            layers["cli.trace_overhead_s"] = traced_wall - values["wall_s"]

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": {"rows": wl.rows, "inputs": len(inputs), "dirty_rows": inputs[0]["dirty_rows"],
                  "program_seed": PROGRAM_SEED,
                  **({"rounds": ROUNDS} if "train" in wl.stages else {})},
        "environment": env,
        "inputs": [{"path": str(Path(i["path"]).relative_to(ROOT)), "sha256": i["sha256"],
                    "generator_version": i["generator_version"]} for i in inputs],
        "repetitions": [
            {"traced": rep.traced, "input": rep.part,
             "stages": [{"stage": r.stage, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                         "maxrss_mb": r.maxrss_mb, "exit_code": r.exit_code} for r in rep.runs]}
            for rep in reps
        ],
        "digests": digests,
        "checks": checked["results"] if checked else {},
        "problems": problems,
        "notes": notes,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "layers": layers,
    }


def print_table(result: dict, end_to_end: dict, per_layer: dict) -> None:
    reps = result["repetitions"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced)  "
          f"input sha256 {' '.join(i['sha256'][:12] for i in result['inputs'])}")
    for name, unit in {**end_to_end, **REPORTED}.items():
        value = result["values"].get(name)
        if value is not None:
            print(f"  {name:<34} {value:>14.6g} {unit}")
    for name, unit in per_layer.items():
        value = result["layers"].get(name)
        if value is not None:
            print(f"  {name:<34} {value:>14.6g} {unit}")
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def summary_line(result: dict, units: dict) -> dict:
    """The result line: every metric of BENCHMARK.json for this trace mode."""
    values = result["layers"] if result["trace"] else result["values"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True, help="input generator seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "flowshap" / "__init__.py").is_file():
        print(f"error: no flowshap package under {SRC}", file=sys.stderr)
        return 2
    end_to_end, per_layer = metric_units("end_to_end"), metric_units("per_layer")
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        result = run(workload, args.seed, args.seconds, bool(args.trace))
        results_dir = STATE / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        record = results_dir / f"{workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
        record.write_text(json.dumps(result, indent=1), encoding="utf-8")
        print_table(result, end_to_end, per_layer)
        print(f"  record: {record.relative_to(ROOT)}")
        line = summary_line(result, per_layer if args.trace else end_to_end)
        if any(m["value"] is None or not math.isfinite(m["value"]) for m in line["metrics"].values()):
            print(f"error: a metric of {workload} could not be measured", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(line), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
