#!/bin/sh
# Run `flowshap pipeline --compare` (4 rounds, the perfbench selection
# settings) on one perfbench/flowgen.py input under this tree and under
# another checkout, usually the parent commit, once with validation scope and
# once with test scope (the paper-faithful mode, whose forward pass's own fit
# is the reduced model), and require the prepared tables and report and every
# model, attribution, ranking and selection artifact to be byte-identical,
# `effective_config.ini` too once its `output_dir` line is removed, and
# `train_report.json` and `select_report.json` (the macro F1 of the full and
# the reduced model) once their `timing` blocks of wall-clock seconds are removed.
# Then run this tree's validation-scope `pipeline --compare` again under
# `taskset -c 0`, where `select` fits the filter methods in its own process
# rather than a forked child, and require the same files to match the other
# tree's.
# Then run `prepare`, `train` and `select` (no `explain`, validation scope) on
# that input under both trees and require `selection_shap.json` and
# `model_selected.json` to be byte-identical.
# Then run `prepare`, `train` and `explain` with `[explain] rows = train` on that
# input under both trees and require the attributions and every ranking to be
# byte-identical.
# Then run `prepare` and `train` on that input three times more, under
# `[hyperparams] alpha = 0.5` and `gamma = 0.25`, under `lambda = 0.0` (where
# split search meets gain terms with non-positive denominators), and under
# `alpha = 0.5`, `lambda = 0.0` and `min_child_weight = 0.0` together (where
# soft-thresholded child sums meet non-positive denominators, and no node is too
# light to be searched, so every node's parent term is scored), and
# require `model.json` and the untimed `train_report.json` to be byte-identical.
# Then run `flowshap prepare` on a 30,000-row input (about 300 dirty rows over
# about 118 parse chunks), on a copy with CRLF line ends and on a copy with one
# quoted cell, under both trees, and require each one's tables and report to be
# byte-identical too; and twice more on the 30,000-row input, with
# `[split] stratified = false` and with `[split] train_fraction = 0.5` (another
# train/test cut).
# Last, run `prepare`, `train` (2 rounds) and `explain` on a 50,000-row input,
# whose nodes of more than 8,192 rows score one feature per split search block,
# under both trees, and require both tables, the prepare report, `model.json`,
# the attributions, every ranking and the untimed `train_report.json` to be
# byte-identical.
# Every pair is compared even after one differs: each file that differs is
# named on stderr, and the script exits nonzero at the end if any did.
#
# Usage, from the repository root: sh .github/byte-identity.sh OTHER_TREE WORKDIR
set -eu
root=$PWD
other=$(cd "$1" && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
differ=0
same() {
    cmp "$1" "$2" || { echo "differs: $1" >&2; differ=1; }
}
csv=$(python perfbench/flowgen.py "$work/cache" 1200 1 0 \
      | python -c "import json, sys; print(json.load(sys.stdin)['path'])")
untimed() {
    python -c "import json, sys; doc = json.load(open(sys.argv[1])); doc.pop('timing', None); print(json.dumps(doc, indent=2))" \
        "$1" > "$2"
}
artifacts() {
    (cd "$1" && ls train_table.npz test_table.npz prepare_report.json model.json \
                   shap_values.csv shap_base_values.json importance_*.csv selection_*.json \
                   model_selected.json comparison.csv)
}
for scope in validation test; do
    for side in new old; do
        tree=$root
        [ "$side" = old ] && tree=$other
        dir=$work/$scope-$side
        rm -rf "$dir"
        printf '[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n[hyperparams]\nn_estimators = 4\n[selection]\nmax_candidates = 16\nevaluation_scope = %s\n' \
            "$csv" "$dir" "$scope" > "$dir.ini"
        PYTHONPATH="$tree/src" python -m flowshap.cli pipeline --compare --config "$dir.ini"
    done
    files=$(artifacts "$work/$scope-new")
    [ "$files" = "$(artifacts "$work/$scope-old")" ] || { echo "differs: $scope artifact list" >&2; differ=1; }
    for f in $files; do
        same "$work/$scope-new/$f" "$work/$scope-old/$f"
    done
    # The config record names its own directory; every other line must match.
    for side in new old; do
        grep -v '^output_dir = ' "$work/$scope-$side/effective_config.ini" > "$work/$scope-$side.record"
    done
    same "$work/$scope-new.record" "$work/$scope-old.record"
    for report in train_report select_report; do
        for side in new old; do
            untimed "$work/$scope-$side/$report.json" "$work/$scope-$side.$report"
        done
        same "$work/$scope-new.$report" "$work/$scope-old.$report"
    done
    echo "$scope scope: $(echo "$files" | wc -l) artifacts, the config record and 2 reports without timing compared"
done
dir=$work/one-cpu-new
rm -rf "$dir"
PYTHONPATH="$root/src" taskset -c 0 python -m flowshap.cli pipeline --compare --config "$work/validation-new.ini" \
    --output-dir "$dir"
files=$(artifacts "$dir")
[ "$files" = "$(artifacts "$work/validation-old")" ] || { echo "differs: one-CPU artifact list" >&2; differ=1; }
for f in $files; do
    same "$dir/$f" "$work/validation-old/$f"
done
for report in train_report select_report; do
    untimed "$dir/$report.json" "$dir.$report"
    same "$dir.$report" "$work/validation-old.$report"
done
echo "one-CPU validation scope: $(echo "$files" | wc -l) artifacts and 2 reports without timing compared"
for side in new old; do
    tree=$root
    [ "$side" = old ] && tree=$other
    rm -rf "$work/direct-$side"
    for stage in prepare train select; do
        PYTHONPATH="$tree/src" python -m flowshap.cli "$stage" --config "$work/validation-$side.ini" \
            --output-dir "$work/direct-$side"
    done
done
for f in selection_shap.json model_selected.json; do
    same "$work/direct-new/$f" "$work/direct-old/$f"
done
echo "prepare, train, select without explain: 2 artifacts compared"
for side in new old; do
    tree=$root
    [ "$side" = old ] && tree=$other
    dir=$work/train-rows-$side
    rm -rf "$dir"
    printf '[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n[hyperparams]\nn_estimators = 4\n[explain]\nrows = train\n' \
        "$csv" "$dir" > "$dir.ini"
    for stage in prepare train explain; do
        PYTHONPATH="$tree/src" python -m flowshap.cli "$stage" --config "$dir.ini"
    done
done
explained() {
    (cd "$1" && ls shap_values.csv shap_base_values.json importance_*.csv)
}
files=$(explained "$work/train-rows-new")
[ "$files" = "$(explained "$work/train-rows-old")" ] || { echo "differs: train-rows artifact list" >&2; differ=1; }
for f in $files; do
    same "$work/train-rows-new/$f" "$work/train-rows-old/$f"
done
echo "prepare, train, explain of the train rows: $(echo "$files" | wc -l) artifacts compared"
for run in 'alpha-gamma:alpha = 0.5\ngamma = 0.25' 'lambda0:lambda = 0.0' \
           'alpha-lambda0-mcw0:alpha = 0.5\nlambda = 0.0\nmin_child_weight = 0.0'; do
    name=${run%%:*} hyper=${run#*:}
    for side in new old; do
        tree=$root
        [ "$side" = old ] && tree=$other
        dir=$work/$name-$side
        rm -rf "$dir"
        printf "[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n[hyperparams]\nn_estimators = 4\n$hyper\n" \
            "$csv" "$dir" > "$dir.ini"
        for stage in prepare train; do
            PYTHONPATH="$tree/src" python -m flowshap.cli "$stage" --config "$dir.ini"
        done
        untimed "$dir/train_report.json" "$dir.train_report"
    done
    same "$work/$name-new/model.json" "$work/$name-old/model.json"
    same "$work/$name-new.train_report" "$work/$name-old.train_report"
    echo "prepare, train under $name: model.json and the untimed train report compared"
done

csv=$(python perfbench/flowgen.py "$work/cache" 30000 1 0 \
      | python -c "import json, sys; print(json.load(sys.stdin)['path'])")
# Two copies of it: with CRLF line ends (parsed in line-aligned byte ranges, one
# per CPU) and with one quoted cell (a quote makes the parse one range).
python - "$csv" "$work/crlf.csv" "$work/quoted.csv" <<'EOF_PY'
import sys
source, crlf, quoted = sys.argv[1:]
with open(source, "rb") as fh:
    data = fh.read()
with open(crlf, "wb") as fh:
    fh.write(data.replace(b"\n", b"\r\n"))
header, first, rest = data.split(b"\n", 2)
cells, label = first.rsplit(b",", 1)
with open(quoted, "wb") as fh:
    fh.write(b"\n".join([header, cells + b',"' + label + b'"', rest]))
EOF_PY
# A config that only sets the split: stratified (the default) or not, or half the rows to train.
printf '[split]\nstratified = true\n' > "$work/stratified.ini"
printf '[split]\nstratified = false\n' > "$work/unstratified.ini"
printf '[split]\ntrain_fraction = 0.5\n' > "$work/half.ini"
for run in "$csv stratified" "$work/crlf.csv stratified" "$work/quoted.csv stratified" "$csv unstratified" \
           "$csv half"; do
    input=${run% *} split=${run##* }
    for side in new old; do
        tree=$root
        [ "$side" = old ] && tree=$other
        rm -rf "$work/prepare-$side"
        PYTHONPATH="$tree/src" python -m flowshap.cli prepare --config "$work/$split.ini" --input "$input" \
            --seed 42 --output-dir "$work/prepare-$side"
    done
    for f in train_table.npz test_table.npz prepare_report.json; do
        same "$work/prepare-new/$f" "$work/prepare-old/$f"
    done
    echo "30,000-row $split prepare of $(basename "$input"): 3 artifacts compared"
done
csv=$(python perfbench/flowgen.py "$work/cache" 50000 1 0 \
      | python -c "import json, sys; print(json.load(sys.stdin)['path'])")
for side in new old; do
    tree=$root
    [ "$side" = old ] && tree=$other
    dir=$work/large-$side
    rm -rf "$dir"
    printf '[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n[hyperparams]\nn_estimators = 2\n' \
        "$csv" "$dir" > "$dir.ini"
    for stage in prepare train explain; do
        PYTHONPATH="$tree/src" python -m flowshap.cli "$stage" --config "$dir.ini"
    done
    untimed "$dir/train_report.json" "$dir.train_report"
done
large() {
    (cd "$1" && ls train_table.npz test_table.npz prepare_report.json model.json \
                   shap_values.csv shap_base_values.json importance_*.csv)
}
files=$(large "$work/large-new")
[ "$files" = "$(large "$work/large-old")" ] || { echo "differs: 50,000-row artifact list" >&2; differ=1; }
for f in $files; do
    same "$work/large-new/$f" "$work/large-old/$f"
done
same "$work/large-new.train_report" "$work/large-old.train_report"
echo "50,000-row prepare, train, explain: $(echo "$files" | wc -l) artifacts and the untimed train report compared"
if [ "$differ" != 0 ]; then
    echo "the files named above differ" >&2
    exit 1
fi
echo "every compared file is byte-identical"
