#!/usr/bin/env bash
# Byte identity of `qcorr run` between two source trees.
#
#     .github/byte_identity.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Builds the scenarios of seeds 0, 1 and 2 of the three benchmark workloads
# (d = 4, by the head's bench/workloads.py), since a seed-0 scenario may keep
# its bytes where other preset draws move, the console-script scenario of
# tests.yml, a density that is not exchange-symmetric (d = 3), whose
# propagation keeps every pair of pair-swap blocks, and an explicit density
# that is exchange-symmetric but not Hermitian (d = 3), whose iteration
# series takes both traced directions of every collision, runs each
# through both trees at one BLAS thread, and compares every output file but
# manifest.json with `diff -r`.  A difference fails the check unless
# qcorr.__version__ differs between the trees: a speedup keeps the bytes of
# the output or bumps the version.  When the version moved, the differing
# files are decoded and compared by value, so that a version bump cannot
# hide a numeric drift: every matrix must lie within 1e-12 of the base's in
# trace norm, relative to the base's; every other number within 1e-12,
# relative when it exceeds 1 in size; every key, length, integer and string
# must be equal.
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
    for seed in (0, 1, 2):
        (work / f"{name}-seed{seed}.json").write_text(dumps_canonical(build(name, seed, 4)))

import numpy as np
from qcorr.operators import ManyBodyOperator, symmetrize
from qcorr.partitions import ParticleSet
from qcorr.presets import rng_from_seed
from qcorr.serialize import encode_sequence
from qcorr.star_algebra import OperatorSequence
# symmetrized complex Gaussian components, of trace norm 0.3 before the average
rng, comps = rng_from_seed(15), {}
for n in (1, 2, 3):
    m = rng.standard_normal((3**n, 3**n)) + 1j * rng.standard_normal((3**n, 3**n))
    m *= 0.3 / np.linalg.svd(m, compute_uv=False).sum()
    comps[n] = symmetrize(ManyBodyOperator(ParticleSet.range1(n), 3, m))
(work / "non-hermitian.json").write_text(dumps_canonical({
    "system": {"preset": "random_hermitian", "seed": 16, "dim_single": 3, "orders": [2]},
    "initial": {"density": encode_sequence(OperatorSequence(3, 3, 1.0, comps), kind="density")},
    "times": [0.0, 0.3],
    "n_max": 3,
    "s_values": [1, 2],
    "quadrature": {"order": 2, "nodes_per_dim": 6},
    "tasks": ["bbgky", "iterate"],
}))
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

cat > "$work/asymmetric.json" <<'EOF'
{
  "system": {"preset": "random_hermitian", "seed": 13, "dim_single": 3, "orders": [2, 3]},
  "initial": {"preset": {"preset": "random_correlation", "seed": 14, "norms": 0.3,
                         "symmetric": false}},
  "times": [0.0, 0.2, 0.6],
  "n_max": 4,
  "observable": [[[1.0, 0.0], [0.5, 0.2], [0.0, 0.0]],
                 [[0.5, -0.2], [-0.3, 0.0], [0.1, 0.4]],
                 [[0.0, 0.0], [0.1, -0.4], [0.7, 0.0]]],
  "tasks": ["evolve", "hierarchy", "observables"]
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
    if diff -r -q -x manifest.json "$work/base/$name" "$work/head/$name"; then
        echo "identical: $name ($(ls "$work/head/$name" | wc -l) files)"
    else
        echo "differs: $name"
        differ=1
    fi
done

version() { PYTHONPATH="$1/src" python -c "import qcorr; print(qcorr.__version__)"; }
if [ "$differ" = 1 ]; then
    if [ "$(version "$base")" = "$(version "$head")" ]; then
        echo "outputs differ at the same version $(version "$head")" >&2
        exit 1
    fi
    echo "outputs differ and the version moved: $(version "$base") -> $(version "$head")"
    PYTHONPATH="$head/src" python - "$work/base" "$work/head" <<'EOF'
import csv, json, pathlib, sys

import numpy as np

from qcorr.serialize import decode_raw_matrix

TOL = 1e-12
base_dir, head_dir = map(pathlib.Path, sys.argv[1:])
faults, worst = [], {}


def is_matrix(x):
    # a raw-matrix leaf: rows of [re, im] pairs
    return (isinstance(x, list) and len(x) > 0 and isinstance(x[0], list)
            and len(x[0]) > 0 and isinstance(x[0][0], list) and len(x[0][0]) == 2
            and all(isinstance(v, (int, float)) for v in x[0][0]))


def trace_norm(m):
    return float(np.linalg.svd(m, compute_uv=False).sum())


def compare(where, b, h):
    if is_matrix(b) and is_matrix(h):
        mb, mh = decode_raw_matrix(b, where), decode_raw_matrix(h, where)
        if mb.shape != mh.shape:
            faults.append(f"{where}: shape {mh.shape} against {mb.shape}")
            return
        scale = trace_norm(mb)
        ratio = trace_norm(mh - mb) / scale if scale else float(np.any(mh != mb))
        file = where.split(":")[0]
        worst[file] = max(worst.get(file, 0.0), ratio)
        if ratio > TOL:
            faults.append(f"{where}: relative trace-norm difference {ratio:.3e}")
    elif isinstance(b, dict) and isinstance(h, dict):
        if sorted(b) != sorted(h):
            faults.append(f"{where}: keys {sorted(h)} against {sorted(b)}")
        for k in sorted(set(b) & set(h)):
            compare(f"{where}.{k}", b[k], h[k])
    elif isinstance(b, list) and isinstance(h, list):
        if len(b) != len(h):
            faults.append(f"{where}: length {len(h)} against {len(b)}")
        for i, (x, y) in enumerate(zip(b, h)):
            compare(f"{where}[{i}]", x, y)
    elif type(b) is float and type(h) is float:
        if abs(h - b) > TOL * max(1.0, abs(b)):
            faults.append(f"{where}: {h!r} against {b!r}")
    elif type(b) is not type(h) or b != h:
        faults.append(f"{where}: {h!r} against {b!r}")


def cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


for b in sorted(base_dir.rglob("*")):
    h = head_dir / b.relative_to(base_dir)
    if b.is_dir() or b.name == "manifest.json" or b.read_bytes() == h.read_bytes():
        continue
    name = str(b.relative_to(base_dir))
    if b.suffix == ".json":
        compare(f"{name}:", json.loads(b.read_text()), json.loads(h.read_text()))
    elif b.suffix == ".csv":
        b_rows, h_rows = ([[cell(c) for c in row] for row in csv.reader(p.open())] for p in (b, h))
        compare(f"{name}:", b_rows, h_rows)
    else:
        faults.append(f"{name}: differs")
for file, ratio in sorted(worst.items()):
    print(f"decoded: {file}: matrices within {ratio:.2e} of the base in trace norm")
if faults:
    print("outputs drift beyond the tolerance:", *faults[:20], sep="\n", file=sys.stderr)
    sys.exit(1)
print(f"every differing file is within {TOL:g} of the base")
EOF
fi
