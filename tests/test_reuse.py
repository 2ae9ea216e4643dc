"""Spectral reuse in `qcorr run`: what one run builds, and for whom.

Four tasks (`evolve`, `hierarchy`, `bbgky`, `observables`) share one
`DensityFlow`, which evolves each component in the eigenbasis of its
Hamiltonian, one pair-swap block at a time; `bbgky` reduces it.  These
tests count the work of a run and probe that every task still takes its
time dependence from `evolution.phases`.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bruteforce import qcorr_run
from qcorr import bbgky, evolution
from qcorr.presets import random_density_state, random_hermitian, random_system, rng_from_seed
from qcorr.serialize import dumps_canonical, encode_raw_matrix, encode_sequence

SRC = Path(__file__).resolve().parent.parent / "src"

# every matrix product that a block's eigenbasis W_b enters, by the shapes of
# its operands
PRODUCTS: Counter = Counter()


class _Counted(np.ndarray):
    """An array that counts, in PRODUCTS, the matrix products it enters;
    every array computed from it counts too."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _Counted) else x

        if ufunc is np.matmul:
            PRODUCTS[tuple(np.shape(x) for x in inputs)] += 1
        if "out" in kwargs:  # an in-place update writes into the counted array
            kwargs["out"] = tuple(plain(x) for x in kwargs["out"])
        out = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        return out.view(_Counted) if isinstance(out, np.ndarray) else out


def _io_scenario(d=2):
    """The io-d4 workload's shape at single-particle dimension d."""
    density = random_density_state(21, d, 4, trace_scale=0.8)
    return {
        "system": {"preset": "random_hermitian", "seed": 20, "orders": [2, 3],
                   "dim_single": d},
        "initial": {"density": encode_sequence(density.seq, kind="density")},
        "times": [0.25, 0.5, 0.75, 1.0],
        "n_max": 4,
        "observable": encode_raw_matrix(random_hermitian(rng_from_seed(22), d)),
        "tasks": ["evolve", "observables"],
    }


def test_evolve_and_observables_form_13_products_per_component(tmp_path, monkeypatch):
    # per pair-swap block of each component and run: W^* D_bb W once (2),
    # W (P o D~_bb) W^* per time (2 x 4), A~_bb and A~_bb^2 once (3), all of
    # the block's size, and the moments' phase rows against A~^k o D~ (2); the
    # data are exchange-symmetric, so no pair b != c and no product of size
    # D = 3^n for n >= 2 runs (the dense route took 13 of size D, and the
    # conjugation route 28 at n = 4)
    eighs, builds = [], []
    eigh, group, build = np.linalg.eigh, evolution.UnitaryGroup, evolution.unitary_matrix

    def counted_group(labels, d, hbar, blocks):
        blocks = tuple((lam, w.view(_Counted), basis) for lam, w, basis in blocks)
        return group(labels, d, hbar, blocks)

    monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(len(h)) or eigh(h))
    monkeypatch.setattr(evolution, "UnitaryGroup", counted_group)
    monkeypatch.setattr(evolution, "unitary_matrix", lambda ug, t: builds.append(t) or build(ug, t))
    PRODUCTS.clear()
    assert qcorr_run(tmp_path, _io_scenario(d=3), "out")[0] == 0
    assert builds == []
    # each H_n diagonalized once, in the blocks of its pair swaps
    blocks = [3] + [6, 3] + [18, 9] + [36, 18, 18, 9]
    assert sorted(eighs) == sorted(blocks)
    want = Counter()
    for size in blocks:
        want[(size, size), (size, size)] += 13
        want[(4, size), (size, size)] += 2  # four times
    assert PRODUCTS == want


def test_hierarchy_and_bbgky_share_one_flow_and_build_no_propagator(tmp_path, monkeypatch):
    eighs, builds = [], []
    eigh, build = np.linalg.eigh, evolution.unitary_matrix
    monkeypatch.setattr(np.linalg, "eigh", lambda h: eighs.append(len(h)) or eigh(h))
    monkeypatch.setattr(evolution, "unitary_matrix", lambda ug, t: builds.append(t) or build(ug, t))
    doc = {
        "system": {"preset": "random_hermitian", "seed": 23, "orders": [2, 3]},
        "initial": {"preset": {"preset": "random_correlation", "seed": 24,
                               "symmetric": True}},
        "times": [0.3, 0.7],
        "n_max": 4,
        "s_values": [1, 2, 3],
        "tasks": ["hierarchy", "bbgky"],
    }
    assert qcorr_run(tmp_path, doc, "out")[0] == 0
    # bbgky reduces the flow that hierarchy evolved, and builds no U_m(t)
    assert builds == []
    # each H_n diagonalized once, in the blocks of its pair swaps
    assert sorted(eighs) == sorted([2] + [3, 1] + [6, 2] + [9, 3, 3, 1])


def _numbers(path: Path) -> np.ndarray:
    def walk(x):
        if isinstance(x, dict):
            return [v for k in sorted(x) for v in walk(x[k])]
        if isinstance(x, list):
            return [v for item in x for v in walk(item)]
        return [x] if isinstance(x, float) else []

    return np.array(walk(json.loads(path.read_text())))


@pytest.mark.parametrize("task", ["evolve", "observables", "hierarchy", "bbgky", "iterate"])
def test_every_density_task_moves_when_the_phases_move(tmp_path, task):
    # probe M1: t scaled by 1 + 1e-6 in the phase helper, the text that the
    # benchmark's smoke test perturbs, moves each task's output
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    evolution_py = copy / "qcorr" / "evolution.py"
    text = evolution_py.read_text()
    assert text.count("-1j * t / ug.hbar") == 1
    evolution_py.write_text(text.replace("-1j * t / ug.hbar", "-1j * t * (1 + 1e-6) / ug.hbar"))
    doc = dict(_io_scenario(), n_max=3, times=[0.4, 0.9], tasks=[task])
    doc["initial"] = {"preset": {"preset": "random_correlation", "seed": 25}}
    if task in ("bbgky", "iterate"):
        # both formulas are checked for exchange-symmetric data only
        doc["initial"]["preset"]["symmetric"] = True
    if task == "iterate":
        # the series is defined for two-body systems
        doc["system"] = dict(doc["system"], orders=[2])
    code, exact = qcorr_run(tmp_path, doc, "exact")
    assert code == 0
    (tmp_path / "probe.json").write_text(dumps_canonical(doc))
    env = dict(os.environ, PYTHONPATH=str(copy))
    got = subprocess.run(
        [sys.executable, "-m", "qcorr.cli", "run", "--scenario", str(tmp_path / "probe.json"),
         "--out", str(tmp_path / "probe")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert got.returncode == 0, got.stderr
    want, moved = _numbers(exact / f"{task}.json"), _numbers(tmp_path / "probe" / f"{task}.json")
    assert np.linalg.norm(moved - want) > 1e-8 * np.linalg.norm(want)


def test_the_iteration_top_level_takes_its_phases_from_evolution(monkeypatch):
    # probe M1 reaches the series' collisions too: each one evaluates its
    # phases through evolution.phases
    calls = []
    monkeypatch.setattr(bbgky, "phases", lambda ug, t: calls.append(t) or evolution.phases(ug, t))
    spec = random_system(26, dim_single=2, orders=(2,))
    f0 = bbgky.marginal_state_from_density(random_density_state(27, 2, 4))
    bbgky.solve_bbgky_iteration(spec, f0, [1, 2], 0.3, bbgky.QuadratureSpec(2, 4))
    # k = 4 nodes: s = 1 reaches m = 2, 3 and s = 2 reaches m = 3, 4; the
    # descent from m = 4 collides k + k^2 times, from m = 3 k + k^2 and from
    # m = 2 k times, every s below a level sharing it
    assert len(calls) == 44
    assert all(0.0 < t < 0.3 for t in calls)
