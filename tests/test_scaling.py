"""Exact scaling relations of the equations, through the whole command line.

Each relation transforms a scenario so that the equations stay the same and
runs both documents through `cli.main`, parsing and writing included:

- (H, hbar) -> (4H, 4hbar) leaves every generator -(i/hbar)[H, .] as it is,
  so every result file is byte-identical;
- (H, t) -> (H/4, 4t) leaves every phase tH/hbar as it is, and the Gauss
  nodes of the iteration series scale with t, so every matrix is identical
  to the bit and every observables number equal;
- a run of the state that a run at t1 writes, at t2, is the run at t1 + t2.

The factors are powers of two, so every scaled matrix is exact and `eigh`
returns the scaled eigenvalues and the same eigenbasis.  A fault that only
shows at hbar != 1, or one that two routes share, breaks these relations.
"""

import json

import numpy as np
import pytest

from bruteforce import qcorr_run, result_files
from qcorr.presets import random_system
from qcorr.serialize import decode_raw_matrix, dumps_canonical, encode_raw_matrix

TASKS = ["evolve", "hierarchy", "bbgky", "iterate", "observables"]
TIMES = [0.0, 0.3, -0.4]
HBAR = 0.5


def _scenario(factor: float, hbar: float, time_factor: float) -> dict:
    """The d = 2 scenario with one_body and the potential times factor."""
    spec = random_system(5, dim_single=2, orders=(2,))
    system = {
        "dim_single": 2,
        "hbar": hbar,
        "one_body": encode_raw_matrix(factor * spec.one_body),
        "potentials": {"2": encode_raw_matrix(factor * spec.potentials[2])},
    }
    return json.loads(dumps_canonical({
        "system": system,
        "initial": {"preset": {"preset": "random_density", "seed": 7}},
        "times": [time_factor * t for t in TIMES],
        "n_max": 3,
        "s_values": [1, 2],
        "quadrature": {"order": 2, "nodes_per_dim": 6},
        "tasks": TASKS,
    }))


def _bits(m) -> np.ndarray:
    return decode_raw_matrix(m).view(np.uint64)


def _matrices(task: str, result: dict) -> list[np.ndarray]:
    """The bits of every matrix of a result, in file order."""
    if task in ("evolve", "hierarchy"):
        return [
            _bits(c)
            for state in result["states"]
            for c in state["components"]
            if c is not None
        ]
    return [_bits(rec["matrix"]) for rec in result["records"]]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    code, out = qcorr_run(tmp_path_factory.mktemp("base"), _scenario(1.0, HBAR, 1.0), "base")
    assert code == 0
    return result_files(out)


def test_hamiltonian_and_hbar_times_4_write_the_same_bytes(tmp_path, base, capsys):
    code, out = qcorr_run(tmp_path, _scenario(4.0, 4 * HBAR, 1.0), "scaled")
    assert code == 0
    scaled = result_files(out)
    assert sorted(scaled) == sorted(base)
    assert [n for n in sorted(base) if scaled[n] != base[n]] == []
    capsys.readouterr()


def test_hamiltonian_over_4_and_times_4_give_the_same_values(tmp_path, base, capsys):
    code, out = qcorr_run(tmp_path, _scenario(0.25, HBAR, 4.0), "scaled")
    assert code == 0
    scaled = result_files(out)
    assert sorted(scaled) == sorted(base)
    for task in TASKS:
        got = json.loads(scaled[f"{task}.json"])
        want = json.loads(base[f"{task}.json"])
        if task == "observables":
            for g, w in zip(got["records"], want["records"], strict=True):
                assert g["t"] == 4 * w["t"]
                assert {k: v for k, v in g.items() if k != "t"} == {
                    k: v for k, v in w.items() if k != "t"
                }
            continue
        got_m, want_m = _matrices(task, got), _matrices(task, want)
        assert len(got_m) == len(want_m) > 0
        for g, w in zip(got_m, want_m):
            assert np.array_equal(g, w), task
    capsys.readouterr()


# runs compose through their files: the state a run writes at t1 is valid
# initial data, and a run of it at t2 is the run at t1 + t2.  This crosses
# the reader, the decoder and the writer, but not a fault that rescales time
# linearly, since (t1 + t2)(1 + e) = t1(1 + e) + t2(1 + e)
FLOW_TASKS = ["evolve", "hierarchy", "bbgky", "observables"]


def _composable(initial: dict, t: float) -> dict:
    return {
        "system": {"preset": "random_hermitian", "seed": 31, "dim_single": 3, "orders": [2, 3]},
        "initial": initial,
        "times": [t],
        "n_max": 3,
        # the identity's moments are conserved, and would compare nothing
        "observable": encode_raw_matrix(np.diag([1.0, 0.0, -2.0]) + 0.5),
        "tasks": FLOW_TASKS,
    }


def _values(task: str, result: dict) -> list[np.ndarray]:
    """Every number a result reports, as arrays in file order."""
    if task in ("evolve", "hierarchy"):
        return [
            decode_raw_matrix(m)
            for state in result["states"]
            for m in [[[state["scalar0"]]], *state["components"]]
            if m is not None
        ]
    if task == "bbgky":
        return [decode_raw_matrix(rec["matrix"]) for rec in result["records"]]
    return [np.array([v for k, v in sorted(rec.items()) if k != "t"]) for rec in result["records"]]


def _relative_gap(task: str, got: dict, want: dict) -> float:
    got_v, want_v = _values(task, got), _values(task, want)
    assert [v.shape for v in got_v] == [v.shape for v in want_v]
    scale = max(float(np.max(np.abs(w), initial=0.0)) for w in want_v)
    return max(float(np.max(np.abs(g - w), initial=0.0)) for g, w in zip(got_v, want_v)) / scale


def _results(out) -> dict:
    return {k: json.loads(v) for k, v in result_files(out).items() if k.endswith(".json")}


@pytest.fixture(scope="module")
def composed(tmp_path_factory):
    """The results of runs at 0.7 and at 0.3, and of the 0.3 run's evolve
    and hierarchy states each run at 0.4."""
    tmp = tmp_path_factory.mktemp("compose")
    preset = {"preset": {"preset": "random_correlation", "seed": 32}}
    runs = {}
    for name, t in [("whole", 0.7), ("first", 0.3)]:
        code, out = qcorr_run(tmp, _composable(preset, t), name)
        assert code == 0
        runs[name] = _results(out)
    for kind, task in [("density", "evolve"), ("correlation", "hierarchy")]:
        state = runs["first"][f"{task}.json"]["states"][0]
        code, out = qcorr_run(tmp, _composable({kind: state}, 0.4), kind)
        assert code == 0
        runs[kind] = _results(out)
    return runs


@pytest.mark.parametrize("kind", ["density", "correlation"])
@pytest.mark.parametrize("task", FLOW_TASKS)
def test_a_run_of_a_written_state_continues_the_run(composed, kind, task, capsys):
    name = f"{task}.json"
    assert _relative_gap(task, composed[kind][name], composed["whole"][name]) < 1e-13
    capsys.readouterr()


@pytest.mark.parametrize("kind, task", [("density", "evolve"), ("correlation", "hierarchy")])
def test_a_t0_run_of_a_written_state_writes_it_back(tmp_path, composed, kind, task, capsys):
    state = composed["first"][f"{task}.json"]["states"][0]
    sc = dict(_composable({kind: state}, 0.0), tasks=[task])
    code, out = qcorr_run(tmp_path, sc, "again")
    assert code == 0
    assert json.loads((out / f"{task}.json").read_text())["states"] == [state]
    capsys.readouterr()
