#!/bin/sh
# Run `flowshap pipeline --compare` (4 rounds, the perfbench selection
# settings) on one perfbench/flowgen.py input under this tree and under
# another checkout, usually the parent commit, and require every model,
# attribution, ranking and selection artifact to be byte-identical.
#
# Usage, from the repository root: sh .github/byte-identity.sh OTHER_TREE WORKDIR
set -eu
other=$(cd "$1" && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
csv=$(python perfbench/flowgen.py "$work/cache" 1200 1 0 \
      | python -c "import json, sys; print(json.load(sys.stdin)['path'])")
for side in new old; do
    tree=$PWD
    [ "$side" = old ] && tree=$other
    rm -rf "$work/$side"
    printf '[run]\ninput_csv = %s\nseed = 42\noutput_dir = %s\n[hyperparams]\nn_estimators = 4\n[selection]\nmax_candidates = 16\nevaluation_scope = validation\n' \
        "$csv" "$work/$side" > "$work/$side.ini"
    PYTHONPATH="$tree/src" python -m flowshap.cli pipeline --compare --config "$work/$side.ini"
done
artifacts() {
    (cd "$1" && ls model.json shap_values.csv importance_*.csv selection_*.json \
                   model_selected.json comparison.csv)
}
cd "$work/new"
files=$(artifacts .)
[ "$files" = "$(artifacts ../old)" ]
for f in $files; do
    cmp "$f" "../old/$f"
done
echo "$(echo "$files" | wc -l) artifacts byte-identical"
