"""Exact scaling relations of the equations, through the whole command line.

Each relation transforms a scenario so that the equations stay the same and
runs both documents through `cli.main`, parsing and writing included:

- (H, hbar) -> (4H, 4hbar) leaves every generator -(i/hbar)[H, .] as it is,
  so every result file is byte-identical;
- (H, t) -> (H/4, 4t) leaves every phase tH/hbar as it is, and the Gauss
  nodes of the iteration series scale with t, so every matrix is identical
  to the bit and every observables number equal.

The factors are powers of two, so every scaled matrix is exact and `eigh`
returns the scaled eigenvalues and the same eigenvectors.  A fault that only
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
