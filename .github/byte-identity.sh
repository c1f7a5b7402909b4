#!/bin/sh
# Require the artifacts of the flowshap runs below, made under this tree, to be
# byte-identical to those made under another checkout, usually the parent
# commit. Every file is compared even after one differs: each one that differs
# is named on stderr, and the script exits 1 at the end if any did.
#
# Usage, from the repository root: sh .github/byte-identity.sh OTHER_TREE WORKDIR
set -eu
root=$PWD
other=$(cd "$1" && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
differ=0

# flowgen ROWS: the path of perfbench/flowgen.py's input of ROWS rows (seed 1, part 0).
flowgen() {
    python perfbench/flowgen.py "$work/cache" "$1" 1 0 \
        | python -c "import json, sys; print(json.load(sys.stdin)['path'])"
}

# pair NAME CSV LINES STAGE...: under this tree and then the other, write the
# config NAME-new.ini or NAME-old.ini ([run] input_csv = CSV, seed = 42 and
# output_dir = the directory NAME-new or NAME-old, then the INI lines LINES) and
# run each STAGE, a flowshap command and its flags, with it.
pair() {
    name=$1 input=$2 lines=$3
    shift 3
    for side in new old; do
        tree=$root
        [ "$side" = old ] && tree=$other
        dir=$work/$name-$side
        rm -rf "$dir"
        printf '[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n%b\n' "$input" "$dir" "$lines" > "$dir.ini"
        for stage in "$@"; do
            PYTHONPATH="$tree/src" python -m flowshap.cli $stage --config "$dir.ini"
        done
    done
}

# pinned CPUS NAME STAGE CONFIG: run this tree's STAGE, a flowshap command and its
# flags, with the config CONFIG under `taskset -c CPUS`, into the directory NAME.
pinned() {
    rm -rf "$work/$2"
    PYTHONPATH="$root/src" taskset -c "$1" python -m flowshap.cli $3 --config "$work/$4" --output-dir "$work/$2"
}

# kept FILE: the part of FILE that must match: a report without its `timing`
# block of wall-clock seconds, or the config record without the line that
# names its own directory.
kept() {
    case $1 in
        *_report.json)
            python -c "import json, sys; doc = json.load(open(sys.argv[1])); doc.pop('timing', None); print(json.dumps(doc, indent=2))" "$1" ;;
        *) grep -v '^output_dir = ' "$1" ;;
    esac
}

# compare A B PATTERNS: require the run directories A and B to hold the same
# files matching PATTERNS and each file to be byte-identical, reports and the
# config record as `kept` leaves them.
compare() {
    files=$(cd "$work/$1" && ls $3) || differ=1
    [ "$files" = "$(cd "$work/$2" && ls $3)" ] || { echo "differs: the files of $1 and $2" >&2; differ=1; }
    for f in $files; do
        a=$work/$1/$f b=$work/$2/$f
        case $f in
            *_report.json | effective_config.ini)
                kept "$a" > "$work/$1.$f" || differ=1
                kept "$b" > "$work/$2.$f" || differ=1
                a=$work/$1.$f b=$work/$2.$f ;;
        esac
        cmp "$a" "$b" || { echo "differs: $work/$1/$f" >&2; differ=1; }
    done
    echo "$1 and $2: $(echo "$files" | wc -l) files compared"
}

tables='train_table.npz test_table.npz prepare_report.json'
explained='shap_values.csv shap_base_values.json importance_*.csv'
pipeline="$tables model.json train_report.json $explained selection_*.json model_selected.json comparison.csv select_report.json"
capped='[hyperparams]\nn_estimators = 4\n[selection]\nmax_candidates = 16'
csv=$(flowgen 1200)
# The pipeline and its filter baselines (4 rounds, the perfbench selection settings), scored on the validation carve-out.
pair validation "$csv" "$capped\nevaluation_scope = validation" 'pipeline --compare'
compare validation-new validation-old "$pipeline effective_config.ini"
# The paper-faithful mode, whose forward pass's own fit is the reduced model.
pair test "$csv" "$capped\nevaluation_scope = test" 'pipeline --compare'
compare test-new test-old "$pipeline effective_config.ini"
# One CPU: select fits the filter methods in its own process rather than a forked child.
pinned 0 one-cpu-new 'pipeline --compare' validation-new.ini
compare one-cpu-new validation-old "$pipeline"
# With no explain stage before it, select computes the attributions itself.
pair direct "$csv" "$capped\nevaluation_scope = validation" prepare train select
compare direct-new direct-old 'selection_shap.json model_selected.json'
# A full forward pass over all 77 candidates, through the late trials that the 16-candidate runs never reach.
pair full-pass "$csv" '[hyperparams]\nn_estimators = 4\n[selection]\nevaluation_scope = validation' 'pipeline --compare'
compare full-pass-new full-pass-old 'selection_shap.json model_selected.json select_report.json'
# Every key set away from its default: a custom drop list, an unstratified 70/30 split,
# a filter method as the primary model, and a forward pass that patience stops.
every_key='label_column = Stage\ndrop_columns = Flow ID, Src IP, Src Port, Dst IP, Dst Port, Timestamp, Protocol
[split]\ntrain_fraction = 0.7\nstratified = false
[hyperparams]\nn_estimators = 3\nlearning_rate = 0.2\nmax_depth = 4\nmin_child_weight = 0.5
gamma = 0.1\nlambda = 2.0\nalpha = 0.25\nbase_score = 0.3
[selection]\nmethod = anova\nk_for_filters = 8\nmax_candidates = 20\npatience = 4\n[explain]\nrows = train'
pair every-key "$csv" "$every_key" 'pipeline --compare'
compare every-key-new every-key-old "$pipeline effective_config.ini"
# explain of the train rows rather than the test split.
pair train-rows "$csv" '[hyperparams]\nn_estimators = 4\n[explain]\nrows = train' prepare train explain
compare train-rows-new train-rows-old "$explained"
# Soft-thresholded gradient sums and a minimum split gain.
pair alpha-gamma "$csv" '[hyperparams]\nn_estimators = 4\nalpha = 0.5\ngamma = 0.25' prepare train
compare alpha-gamma-new alpha-gamma-old 'model.json train_report.json'
# Split search meets gain terms with non-positive denominators.
pair lambda0 "$csv" '[hyperparams]\nn_estimators = 4\nlambda = 0.0' prepare train
compare lambda0-new lambda0-old 'model.json train_report.json'
# Soft-thresholded child sums meet non-positive denominators, and no node is too light to score its parent term.
pair alpha-lambda0-mcw0 "$csv" '[hyperparams]\nn_estimators = 4\nalpha = 0.5\nlambda = 0.0\nmin_child_weight = 0.0' \
    prepare train
compare alpha-lambda0-mcw0-new alpha-lambda0-mcw0-old 'model.json train_report.json'

csv=$(flowgen 30000)
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
# About 300 dirty rows over about 118 parse chunks, split stratified (the default).
pair prepare "$csv" '[split]\nstratified = true' prepare
compare prepare-new prepare-old "$tables"
# The same parse in one range and in two, whatever the runner's CPU count.
pinned 0 prepare-one-cpu prepare prepare-new.ini
compare prepare-one-cpu prepare-old "$tables"
pinned 0,1 prepare-two-cpus prepare prepare-new.ini
compare prepare-two-cpus prepare-old "$tables"
# CRLF line ends.
pair prepare-crlf "$work/crlf.csv" '[split]\nstratified = true' prepare
compare prepare-crlf-new prepare-crlf-old "$tables"
# One quoted cell.
pair prepare-quoted "$work/quoted.csv" '[split]\nstratified = true' prepare
compare prepare-quoted-new prepare-quoted-old "$tables"
# The unstratified split.
pair prepare-unstratified "$csv" '[split]\nstratified = false' prepare
compare prepare-unstratified-new prepare-unstratified-old "$tables"
# Another train/test cut.
pair prepare-half "$csv" '[split]\ntrain_fraction = 0.5' prepare
compare prepare-half-new prepare-half-old "$tables"

csv=$(flowgen 50000)
# Nodes of more than 8,192 rows score one feature per split search block.
pair large "$csv" '[hyperparams]\nn_estimators = 2' prepare train explain
compare large-new large-old "$tables model.json train_report.json $explained"

if [ "$differ" != 0 ]; then
    echo "the files named above differ" >&2
    exit 1
fi
echo "every compared file is byte-identical"
