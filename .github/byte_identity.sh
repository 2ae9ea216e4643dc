#!/usr/bin/env bash
# Byte identity of `qcorr run` between two source trees.
#
#     .github/byte_identity.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Builds the seed-0 scenarios of the three benchmark workloads (d = 4, by the
# head's bench/workloads.py) and the console-script scenario of tests.yml,
# runs each through both trees at one BLAS thread, and compares every output
# file but manifest.json with `diff -r`.  A difference fails the check unless
# qcorr.__version__ differs between the trees: a speedup keeps the bytes of
# the output or bumps the version.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
work=$3
rm -rf "$work"
mkdir -p "$work"
export OPENBLAS_NUM_THREADS=1

PYTHONPATH="$head/src" python - "$head/bench" "$work" <<'EOF'
import pathlib, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, build
from qcorr.serialize import dumps_canonical
work = pathlib.Path(sys.argv[2])
for name in WORKLOADS:
    (work / f"{name}.json").write_text(dumps_canonical(build(name, 0, 4)))
EOF
cat > "$work/console.json" <<'EOF'
{
  "system": {"preset": "random_hermitian", "seed": 11, "dim_single": 2, "orders": [2]},
  "initial": {"preset": {"preset": "random_correlation", "seed": 12, "norms": 0.3}},
  "times": [0.0, 0.1, 0.3],
  "n_max": 3,
  "quadrature": {"order": 2, "nodes_per_dim": 6},
  "tasks": ["evolve", "hierarchy", "bbgky", "iterate", "observables"]
}
EOF

qcorr() {  # qcorr TREE ARGS...: the command line of the tree's sources
    local tree=$1
    shift
    PYTHONPATH="$tree/src" python -c \
        "import sys; from qcorr.cli import main; sys.exit(main(sys.argv[1:]))" "$@"
}

differ=0
for scenario in "$work"/*.json; do
    name=$(basename "$scenario" .json)
    for side in base head; do
        qcorr "${!side}" run --scenario "$scenario" --out "$work/$side/$name" --threads 1 >/dev/null
    done
    if diff -r -x manifest.json "$work/base/$name" "$work/head/$name"; then
        echo "identical: $name ($(ls "$work/head/$name" | wc -l) files)"
    else
        echo "differs: $name"
        differ=1
    fi
done

version() { PYTHONPATH="$1/src" python -c "import qcorr; print(qcorr.__version__)"; }
if [ "$differ" = 1 ]; then
    if [ "$(version "$base")" != "$(version "$head")" ]; then
        echo "outputs differ and the version moved: $(version "$base") -> $(version "$head")"
    else
        echo "outputs differ at the same version $(version "$head")" >&2
        exit 1
    fi
fi
