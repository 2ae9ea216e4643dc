"""Command-line contract: exit codes, file outputs, determinism."""

import json
import os
import shutil
import subprocess
import sys
from math import factorial

import numpy as np
import pytest

import qcorr
from bruteforce import naive_embed
from qcorr import cli
from qcorr.bbgky import (
    additive_dispersion,
    marginal_state_from_density,
    reduce_from_density,
    solve_bbgky_cumulant,
)
from qcorr.cli import load_scenario, main
from qcorr.evolution import evolve_density_sequence
from qcorr import verify
from qcorr.hierarchy import DensityState, cluster_expand
from qcorr.operators import ManyBodyOperator, trace_norm
from qcorr.partitions import ParticleSet
from qcorr.presets import chaos_one_particle, random_hermitian, rng_from_seed
from qcorr.serialize import (
    ALL_SCHEMAS,
    REPORT_SCHEMA,
    decode_raw_matrix,
    encode_raw_matrix,
    validate,
)
from qcorr.verify import SUITE_NAMES, solve_chaos

# small scenario: every value chosen so a full run stays under a second
BASE_SCENARIO = {
    "system": {
        "preset": "random_hermitian",
        "seed": 11,
        "orders": [2],
        "dim_single": 2,
    },
    "initial": {
        "preset": {"preset": "random_correlation", "seed": 12, "norms": 0.3}
    },
    "times": [0.1, 0.3],
    "n_max": 2,
    "s_values": [1, 2],
    "tasks": ["evolve", "bbgky", "observables"],
}


# the iterate benchmark workload at d = 2: exchange-symmetric density data and
# s >= n_max - 2, so the order-2 series equals the cumulant solution
ITERATE_SCENARIO = {
    "system": {
        "preset": "random_hermitian",
        "seed": 21,
        "orders": [2],
        "dim_single": 2,
    },
    "initial": {
        "preset": {"preset": "random_density", "seed": 22, "trace_scale": 0.8}
    },
    "times": [0.5],
    "n_max": 4,
    "s_values": [2, 3],
    "quadrature": {"order": 2, "nodes_per_dim": 6, "rule": "gauss-legendre-simplex"},
    "tasks": ["iterate"],
}


def _write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _read_dir(out_dir):
    return {
        name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)
    }


def _run(tmp_path, obj, out_name, extra=()):
    path = _write_scenario(tmp_path, obj, f"{out_name}.json")
    out = tmp_path / out_name
    code = main(["run", "--scenario", path, "--out", str(out), *extra])
    return code, out


def test_run_writes_expected_files(tmp_path):
    code, out = _run(tmp_path, BASE_SCENARIO, "base")
    assert code == 0
    names = set(os.listdir(out))
    assert names == {
        "manifest.json",
        "evolve.json",
        "bbgky.json",
        "bbgky.csv",
        "observables.json",
        "observables.csv",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.keys() == {"scenario", "package", "files"}
    assert manifest["package"] == {"name": "qcorr", "version": qcorr.__version__}
    assert manifest["files"] == sorted(names - {"manifest.json"})
    assert manifest["scenario"] == BASE_SCENARIO


def test_rerun_is_byte_identical(tmp_path):
    _, first = _run(tmp_path, BASE_SCENARIO, "a")
    _, second = _run(tmp_path, BASE_SCENARIO, "b")
    assert _read_dir(first) == _read_dir(second)


def test_thread_count_does_not_change_bytes(tmp_path):
    _, serial = _run(tmp_path, BASE_SCENARIO, "serial")
    _, parallel = _run(tmp_path, BASE_SCENARIO, "parallel", ("--threads", "4"))
    assert _read_dir(serial) == _read_dir(parallel)


def test_seed_override(tmp_path):
    _, base = _run(tmp_path, BASE_SCENARIO, "noseed")
    _, overridden = _run(tmp_path, BASE_SCENARIO, "seed99", ("--seed", "99"))
    assert (base / "evolve.json").read_bytes() != (
        overridden / "evolve.json"
    ).read_bytes()

    # the manifest records the seeds that ran, so every byte matches a run of
    # the document with both seeds written in
    pinned = json.loads(json.dumps(BASE_SCENARIO))
    pinned["system"]["seed"] = 99
    pinned["initial"]["preset"]["seed"] = 99
    _, direct = _run(tmp_path, pinned, "pinned")
    assert _read_dir(direct) == _read_dir(overridden)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("system", dict(BASE_SCENARIO["system"], seed=-1), "'system/seed': -1 is less"),
        ("initial", [], "'initial': [] is not of type 'object'"),
    ],
    ids=["negative-seed", "initial-not-an-object"],
)
def test_seed_override_on_a_malformed_document_exits_2(
    tmp_path, capsys, field, value, message
):
    # --seed changes no message: the document is judged as written
    sc = dict(BASE_SCENARIO, **{field: value})
    errors = []
    for name, extra in [("plain", ()), ("seeded", ("--seed", "99"))]:
        code, out = _run(tmp_path, sc, name, extra)
        assert code == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"schema violation: scenario at {message}")
    assert len(errors[0].splitlines()) == 1


def test_malformed_json_exits_2_without_output(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    out = tmp_path / "bad-out"
    code = main(["run", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "malformed JSON" in capsys.readouterr().err


def test_schema_violation_exits_2_without_output(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["tasks"] = ["simulate"]
    path = _write_scenario(tmp_path, sc)
    out = tmp_path / "schema-out"
    code = main(["run", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    assert "schema violation" in capsys.readouterr().err


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_directory_as_scenario_exits_2(tmp_path, capsys):
    code = main(["run", "--scenario", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read scenario {tmp_path}:")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys, monkeypatch):
    # the output path is refused before any task runs, and nothing is written
    def refuse(sc, threads):
        raise AssertionError("a task ran before the output path was checked")

    for task in cli._TASK_FNS:
        monkeypatch.setitem(cli._TASK_FNS, task, refuse)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory")]:
        code = main(["run", "--scenario", path, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"cannot write output {out}: {reason}\n"
        assert taken.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json", "taken"]


# suites run through `qcorr verify` only: a scenario has no route to them.
# Chaos data are a correlation sequence that holds only g_1, so there is no
# chaos task, preset or initial form
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tasks", ["verify:group-law"], "'verify:group-law' does not match"),
        ("tolerances", {"tol_scale": 1.0}, "('tolerances' was unexpected)"),
        (
            "initial",
            {"preset": {"preset": "chaos", "seed": 12}},
            "'chaos' is not one of",
        ),
        (
            "initial",
            {"chaos": {"labels": [1], "dim_single": 2, "matrix": encode_raw_matrix(
                chaos_one_particle(31, 2, norm=0.8).matrix)}},
            "('chaos' was unexpected)",
        ),
        ("tasks", ["chaos"], "'chaos' does not match"),
    ],
    ids=["verify-task", "tolerances", "chaos-preset", "chaos-initial", "chaos-task"],
)
def test_suite_route_and_chaos_preset_exit_2(tmp_path, capsys, field, value, message):
    sc = dict(BASE_SCENARIO, **{field: value})
    code, out = _run(tmp_path, sc, "no-route")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("schema violation: ")
    assert message in err


_CORRELATION_AS_DENSITY = {
    "kind": "density",
    "dim_single": 2,
    "n_max": 1,
    "scalar0": [0.0, 0.0],
    "components": [[[[0.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]],
}


# every initial field is read or refused
@pytest.mark.parametrize(
    "initial, message",
    [
        (
            {"preset": {"preset": "random_correlation", "seed": 12, "trace_scale": 0.5}},
            "initial preset random_correlation does not read 'trace_scale'",
        ),
        (
            {"preset": {"preset": "random_density", "seed": 12, "norms": 0.5}},
            "initial preset random_density does not read 'norms'",
        ),
        (
            {"preset": {"preset": "random_density", "seed": 12, "traceless": False}},
            "initial preset random_density does not read 'traceless'",
        ),
        (
            {"preset": {"preset": "random_density", "seed": 12, "symmetric": True}},
            "initial preset random_density does not read 'symmetric'",
        ),
        (
            {"correlation": _CORRELATION_AS_DENSITY},
            "initial correlation sequence is marked kind 'density'",
        ),
    ],
    ids=[
        "random_correlation-trace_scale",
        "random_density-norms",
        "random_density-traceless",
        "random_density-symmetric",
        "correlation-kind-density",
    ],
)
def test_unread_initial_field_exits_2(tmp_path, capsys, initial, message):
    sc = dict(BASE_SCENARIO, initial=initial)
    code, out = _run(tmp_path, sc, "unread")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"schema violation: {message}\n"


def test_capacity_guards_exit_3(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["n_max"] = 5
    code, out = _run(tmp_path, sc, "too-deep")
    assert code == 3
    assert not out.exists()

    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["times"] = [100.0]
    code, _ = _run(tmp_path, sc, "too-long")
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "system, n_max",
    [
        # total dimension 40^2 = 1600 above 256
        ({"preset": "random_hermitian", "seed": 1, "dim_single": 40}, 2),
        # a potential of dimension 2^11 = 2048 above the operator cap 1024
        ({"preset": "random_hermitian", "seed": 1, "orders": [11]}, 2),
    ],
)
def test_capacity_checked_before_the_system_is_built(
    tmp_path, capsys, monkeypatch, system, n_max
):
    def refuse(*args, **kwargs):
        raise AssertionError("random_system called before the capacity check")

    monkeypatch.setattr("qcorr.presets.random_system", refuse)
    sc = dict(BASE_SCENARIO, system=system, n_max=n_max, s_values=[1])
    code, out = _run(tmp_path, sc, "too-wide")
    assert code == 3
    assert not out.exists()
    assert "capacity guard" in capsys.readouterr().err


# imports the CLI, runs it on argv, then reports on stderr whether
# jsonschema was ever imported
_PROBE = (
    "import sys\n"
    "from qcorr.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('verify imported:', 'qcorr.verify' in sys.modules, file=sys.stderr)\n"
    "print('jsonschema imported:', 'jsonschema' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _probe(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcorr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, text=True,
        env=env,
    )


def test_accepting_input_never_imports_jsonschema(tmp_path):
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    proc = _probe("run", "--scenario", path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("jsonschema imported: False\n")

    proc = _probe("schema", "--print")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout).keys() == ALL_SCHEMAS.keys()
    assert proc.stderr.endswith("jsonschema imported: False\n")

    bad = json.loads(json.dumps(BASE_SCENARIO))
    bad["tasks"] = ["simulate"]
    path = _write_scenario(tmp_path, bad, "bad.json")
    proc = _probe("run", "--scenario", path, "--out", str(tmp_path / "bad-out"))
    assert proc.returncode == 2
    assert proc.stderr == (
        "schema violation: scenario at 'tasks/0': 'simulate' does not match "
        "'^(evolve|hierarchy|bbgky|iterate|observables)$'\n"
        "verify imported: False\n"
        "jsonschema imported: True\n"
    )


def test_a_five_task_run_never_imports_verify(tmp_path):
    # the checks and the reference routes live in qcorr.verify, which only
    # `qcorr verify` loads
    sc = dict(BASE_SCENARIO, tasks=list(cli._TASK_FNS))
    path = _write_scenario(tmp_path, sc)
    proc = _probe("run", "--scenario", path, "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("verify imported: False\njsonschema imported: False\n")

    # the probe does see the module when it is loaded
    proc = _probe("verify", "--suite", "combinatorics")
    assert proc.returncode == 0, proc.stderr
    assert "verify imported: True\n" in proc.stderr


def test_non_hermitian_observable_exits_2(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["observable"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    code, out = _run(tmp_path, sc, "non-hermitian")
    assert code == 2
    assert not out.exists()
    assert "observable must be Hermitian" in capsys.readouterr().err

    # a Hermitian observable with complex entries is accepted
    sc["observable"] = [[[1, 0], [0, -2]], [[0, 2], [-1, 0]]]
    code, _ = _run(tmp_path, sc, "hermitian")
    assert code == 0
    capsys.readouterr()


def _one_particle_density(d11, tasks=("observables",)):
    """One particle at t = 0.5 with D_1 = diag(d11, 0.2)."""
    return {
        "system": {"preset": "random_hermitian", "seed": 11, "orders": [2]},
        "initial": {"density": {
            "dim_single": 2, "n_max": 1, "scalar0": [1, 0],
            "components": [[[d11, [0, 0]], [[0, 0], [0.2, 0]]]],
        }},
        "times": [0.5],
        "n_max": 1,
        "tasks": list(tasks),
    }


def test_observables_refuse_non_hermitian_density(tmp_path, capsys):
    # with D_1 = diag(0.3 + 0.1i, 0.2) the exact mean particle number is
    # 0.33628 + 0.04425i, and its real part alone would be no answer
    code, out = _run(tmp_path, _one_particle_density([0.3, 0.1]), "non-hermitian")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "initial density component 1 must be Hermitian" in err
    assert "deviation 0.2" in err
    # correlation data expand to a density that is Hermitian exactly when they are
    sc = _one_particle_density([0.3, 0.1])
    sc["initial"] = {"correlation": dict(sc["initial"]["density"], scalar0=[0, 0])}
    assert _run(tmp_path, sc, "correlation")[0] == 2
    assert "initial correlation component 1 must be Hermitian" in capsys.readouterr().err

    # evolve writes complex numbers, so it runs on the same data
    sc = _one_particle_density([0.3, 0.1], tasks=["evolve"])
    assert _run(tmp_path, sc, "evolve")[0] == 0
    assert _run(tmp_path, _one_particle_density([0.3, 0]), "hermitian")[0] == 0
    capsys.readouterr()


def test_min_eig_is_null_for_a_non_hermitian_marginal(tmp_path):
    # at t = 0, F_1 = D_1 / (1 + tr D_1) with D_1 = diag(0.3 + 0.1i, 0.2) has
    # the eigenvalues 0.20354 + 0.05310i and 0.13274 - 0.00885i, so the
    # lowest eigenvalue of (F + F^dagger) / 2, 0.13274, is neither
    for d11, hermitian in (([0.3, 0.1], False), ([0.3, 0], True)):
        sc = _one_particle_density(d11, tasks=["bbgky", "iterate"])
        sc["times"] = [0.0]
        code, out = _run(tmp_path, sc, f"min-eig-{hermitian}")
        assert code == 0
        for task in ("bbgky", "iterate"):
            (rec,) = json.loads((out / f"{task}.json").read_text())["records"]
            f = decode_raw_matrix(rec["matrix"])
            rows = (out / f"{task}.csv").read_text().splitlines()
            assert rows[0].endswith(",min_eig")
            if hermitian:
                assert rec["min_eig"] == np.linalg.eigvalsh(f)[0]
                assert rows[1].endswith("," + repr(rec["min_eig"]))
            else:
                z = 1.5 + 0.1j
                assert np.allclose(f, np.diag([(0.3 + 0.1j) / z, 0.2 / z]), atol=1e-15)
                assert rec["min_eig"] is None
                assert rows[1].endswith(",")


def test_overflow_is_a_numeric_failure(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["initial"]["preset"]["norms"] = 1e200
    for name, extra in [("overflow", ()), ("overflow-threads", ("--threads", "2"))]:
        code, out = _run(tmp_path, sc, name, extra)
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ")
        assert "overflow" in err
        assert "Warning" not in err


def test_overflowing_preset_is_a_numeric_failure(tmp_path, capsys):
    # trace_scale**2 overflows while the preset is drawn, before any task
    initial = {"preset": {"preset": "random_density", "seed": 12, "trace_scale": 1e200}}
    code, out = _run(tmp_path, dict(BASE_SCENARIO, initial=initial), "overflow-preset")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: initial data: ")
    assert len(err.splitlines()) == 1


def test_extreme_matrix_entries_leak_no_warning(tmp_path, capsys):
    # entries of 1e200 overflow a plain Frobenius norm, subnormal ones the
    # reciprocal of a scale, and 1e400 parses as inf; the Hermiticity checks
    # must still decide without a numpy warning
    huge = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
    sc = {
        "system": {"dim_single": 2, "one_body": huge},
        "initial": {"preset": {"preset": "random_density", "seed": 1}},
        "times": [0.1],
        "n_max": 2,
        "tasks": ["evolve"],
    }
    code, out = _run(tmp_path, sc, "huge-one-body")
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("capacity guard: phase bound")
    assert "Warning" not in err

    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["observable"] = huge
    code, out = _run(tmp_path, sc, "huge-observable")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "Warning" not in err

    sc["observable"] = [[[1e-320, 0], [0, 0]], [[0, 0], [5e-324, 0]]]
    code, _ = _run(tmp_path, sc, "tiny-observable")
    assert code == 0
    assert "Warning" not in capsys.readouterr().err

    # json reads 1e400 as inf; both checks refuse it as bad input
    cases = {
        "inf-one-body": dict(sc, system={"dim_single": 2, "one_body": huge}),
        "inf-observable": dict(sc, observable=huge),
    }
    for name, obj in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj).replace("1e+200", "1e400", 1))
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / name)])
        assert code == 2
        err = capsys.readouterr().err
        assert "matrix entries must be finite" in err
        assert "Warning" not in err


@pytest.mark.parametrize("literal", [float("nan"), float("inf"), float("-inf")])
def test_non_standard_json_literals_exit_2(tmp_path, capsys, literal):
    sc = {
        "system": {
            "dim_single": 2,
            "one_body": [[[literal, 0], [0, 0]], [[0, 0], [1, 0]]],
        },
        "initial": {"preset": {"preset": "random_density", "seed": 1}},
        "times": [0.1],
        "n_max": 2,
        "tasks": ["evolve"],
    }
    # json.dumps writes NaN, Infinity and -Infinity, which JSON itself lacks
    code, out = _run(tmp_path, sc, "literal")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid request: non-standard JSON literal")
    assert json.dumps(literal) in err
    assert "RuntimeWarning" not in err


def test_tiny_hbar_exceeds_phase_bound(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["system"]["hbar"] = 1e-300
    code, out = _run(tmp_path, sc, "tiny-hbar")
    assert code == 3
    assert not out.exists()
    assert "phase bound" in capsys.readouterr().err

    # a small but workable hbar keeps its phases below the bound
    sc["system"]["hbar"] = 1e-3
    code, _ = _run(tmp_path, sc, "small-hbar")
    assert code == 0
    capsys.readouterr()


def test_iterate_task_matches_cumulant_solution(tmp_path, capsys):
    code, out = _run(tmp_path, ITERATE_SCENARIO, "iterate")
    assert code == 0
    assert set(os.listdir(out)) == {"manifest.json", "iterate.json", "iterate.csv"}
    result = json.loads((out / "iterate.json").read_text())
    assert result["quadrature"] == ITERATE_SCENARIO["quadrature"]

    sc = load_scenario(ITERATE_SCENARIO)
    f0 = marginal_state_from_density(sc.initial)
    records = result["records"]
    assert [(r["s"], r["t"]) for r in records] == [(2, 0.5), (3, 0.5)]
    for rec in records:
        s, t = rec["s"], rec["t"]
        matrix = decode_raw_matrix(rec["matrix"])
        got = ManyBodyOperator(ParticleSet.range1(s), 2, matrix)
        assert trace_norm(got - solve_bbgky_cumulant(sc.spec, f0, s, t)) < 1e-5

    _, parallel = _run(tmp_path, ITERATE_SCENARIO, "iterate-2", ("--threads", "2"))
    assert _read_dir(out) == _read_dir(parallel)
    capsys.readouterr()


# the non-symmetric preset at n_max = 3: the s = 1 cumulant solution misses
# the reduced evolved density by about 1.2e-2, the s = 2 one by round-off
ASYMMETRIC_SCENARIO = dict(BASE_SCENARIO, times=[0.3], n_max=3)


@pytest.mark.parametrize("task", ["bbgky", "iterate"])
def test_non_symmetric_density_exits_2_without_output(tmp_path, capsys, task):
    sc = dict(ASYMMETRIC_SCENARIO, s_values=[1], tasks=[task])
    code, out = _run(tmp_path, sc, f"asym-{task}")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "density component 3 is not exchange-symmetric" in err
    assert "defect 5.674e-02" in err


def test_non_symmetric_density_passes_when_every_checked_s_is_exact(tmp_path, capsys):
    sc = dict(ASYMMETRIC_SCENARIO, s_values=[2], tasks=["bbgky"])
    code, out = _run(tmp_path, sc, "asym-s2")
    assert code == 0
    loaded = load_scenario(sc)
    d0 = cluster_expand(loaded.initial)
    dt = DensityState(evolve_density_sequence(loaded.spec, d0.seq, 0.3))
    rec = json.loads((out / "bbgky.json").read_text())["records"][0]
    got = ManyBodyOperator(ParticleSet.range1(2), 2, decode_raw_matrix(rec["matrix"]))
    assert trace_norm(got - reduce_from_density(dt, 2)) < 1e-12
    capsys.readouterr()


def test_wrong_task_for_initial_data_leaves_no_output(tmp_path, capsys):
    # evolve succeeds, then bbgky refuses the non-symmetric data: nothing is
    # written, not even the evolve result
    sc = dict(ASYMMETRIC_SCENARIO, s_values=[1], tasks=["evolve", "bbgky"])
    code, out = _run(tmp_path, sc, "mismatched")
    assert code == 2
    assert not out.exists()
    assert "not exchange-symmetric" in capsys.readouterr().err


def test_short_norms_list_exits_2_without_traceback(tmp_path):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["n_max"] = 3
    sc["initial"]["preset"]["norms"] = [0.5]
    path = _write_scenario(tmp_path, sc)
    out = tmp_path / "short-norms"
    cmd = [sys.executable, "-m", "qcorr.cli", "run", "--scenario", path]
    proc = subprocess.run(cmd + ["--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "norms has 1 entries but n_max is 3" in proc.stderr
    assert not out.exists()


def test_hierarchy_on_one_particle_data_is_the_chaos_solution(tmp_path, capsys):
    # chaos data are a correlation sequence that holds only g_1; at t = 0 the
    # solution is the data, with absent components written as null
    g1 = chaos_one_particle(32, 2, norm=0.8)
    initial = {
        "correlation": {
            "dim_single": 2,
            "n_max": 3,
            "scalar0": [0.0, 0.0],
            "components": [encode_raw_matrix(g1.matrix), None, None],
        }
    }
    sc = dict(BASE_SCENARIO, initial=initial, times=[0.0, 0.3], n_max=3)
    sc["tasks"] = ["hierarchy"]
    code, out = _run(tmp_path, sc, "chaos-data")
    assert code == 0
    states = json.loads((out / "hierarchy.json").read_text())["states"]
    spec = load_scenario(sc).spec
    for t, state in zip(sc["times"], states, strict=True):
        for n, rows in enumerate(state["components"], start=1):
            want = solve_chaos(spec, g1, n, t).matrix
            got = np.zeros_like(want) if rows is None else decode_raw_matrix(rows)
            assert (rows is None) == (t == 0.0 and n > 1)
            assert np.array_equal(got, want)
    capsys.readouterr()


def _direct_moments(dt, a):
    """Normalized first and second moments of sum_i a(i), by index loops."""
    z = 1.0 + 0.0j
    m1 = m2 = 0.0 + 0.0j
    for n, op in dt.seq.components.items():
        a_n = sum(naive_embed(a, [i], n, 2) for i in range(n))
        z += np.trace(op.matrix) / factorial(n)
        m1 += np.trace(a_n @ op.matrix) / factorial(n)
        m2 += np.trace(a_n @ a_n @ op.matrix) / factorial(n)
    return (m1 / z).real, (m2 / z).real


def test_observables_are_density_moments_on_non_symmetric_data(tmp_path, capsys):
    a = random_hermitian(rng_from_seed(41), 2)
    sc = dict(ASYMMETRIC_SCENARIO, times=[0.0, 0.3], tasks=["observables"])
    sc["observable"] = encode_raw_matrix(a)
    code, out = _run(tmp_path, sc, "asym-observables")
    assert code == 0
    records = json.loads((out / "observables.json").read_text())["records"]
    loaded = load_scenario(sc)
    d0 = cluster_expand(loaded.initial)
    for t, rec in zip(sc["times"], records, strict=True):
        dt = DensityState(evolve_density_sequence(loaded.spec, d0.seq, t))
        m1, m2 = _direct_moments(dt, a)
        assert abs(rec["observable_mean"] - m1) < 1e-12
        assert abs(rec["observable_dispersion"] - (m2 - m1 * m1)) < 1e-12
        # F_1 and F_2 do not stand for every particle and pair on these data
        marginal = additive_dispersion(a, marginal_state_from_density(dt))
        assert abs(marginal - (m2 - m1 * m1)) > 1e-3
    capsys.readouterr()


def test_one_particle_cutoff_still_has_a_dispersion(tmp_path, capsys):
    # n_max = 1 and the identity observable: the particle number is 0 or 1,
    # so its variance is p (1 - p) with p the mean, no pair marginal needed
    initial = {"preset": {"preset": "random_density", "seed": 12, "trace_scale": 0.5}}
    sc = dict(BASE_SCENARIO, initial=initial, n_max=1, tasks=["observables"])
    del sc["s_values"]
    code, out = _run(tmp_path, sc, "one-particle-observables")
    assert code == 0
    for rec in json.loads((out / "observables.json").read_text())["records"]:
        p = rec["observable_mean"]
        assert abs(rec["observable_dispersion"] - p * (1 - p)) < 1e-15
    capsys.readouterr()


def test_json_only_output_format(tmp_path):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["output"] = {"format": "json"}
    code, out = _run(tmp_path, sc, "json-only")
    assert code == 0
    assert not [n for n in os.listdir(out) if n.endswith(".csv")]


def test_scenario_output_path_used_without_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["output"] = {"path": "from-scenario", "format": "json"}
    path = _write_scenario(tmp_path, sc)
    assert main(["run", "--scenario", path]) == 0
    assert (tmp_path / "from-scenario" / "manifest.json").exists()
    capsys.readouterr()


def test_csv_floats_roundtrip(tmp_path):
    _, out = _run(tmp_path, BASE_SCENARIO, "csv-check")
    lines = (out / "bbgky.csv").read_text().splitlines()
    assert lines[0] == "s,t,trace_re,trace_im,trace_norm,min_eig"
    records = json.loads((out / "bbgky.json").read_text())["records"]
    assert len(lines) == len(records) + 1
    for line, rec in zip(lines[1:], records):
        cells = line.split(",")
        assert float(cells[4]) == rec["trace_norm"]


def test_verify_command_passes(capsys):
    code = main(["verify", "--suite", "combinatorics"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"] is True


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_verify_suite_passes(suite, capsys):
    code = main(["verify", "--suite", suite])
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == []
    assert report["passed"] is True
    assert code == 0
    validate(report, REPORT_SCHEMA, "report")
    assert report["suite"] == suite
    ratios = []
    for c in report["checks"]:
        # headroom is residual / tolerance; exact checks have none
        if c["tolerance"] == 0:
            assert c["headroom"] is None
        else:
            assert c["headroom"] == c["residual"] / c["tolerance"]
            assert c["headroom"] <= 1.0
            ratios.append(c["headroom"])
    assert report["max_headroom"] == max(ratios, default=None)
    # combinatorics is all exact counts; group-law has toleranced checks
    if suite == "combinatorics":
        assert report["max_headroom"] is None
    if suite == "group-law":
        assert report["max_headroom"] is not None


def test_verify_command_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    assert code == 2
    assert "valid:" in capsys.readouterr().err


def test_failing_check_exits_1(capsys, monkeypatch):
    suite = verify._SUITES["combinatorics"]
    failing = verify.Check("over-tolerance", "1 is above 0", 0.0, lambda: 1.0)
    monkeypatch.setitem(verify._SUITES, "combinatorics", lambda: [*suite(), failing])
    code = main(["verify", "--suite", "combinatorics"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False
    assert report["n_failed"] == 1
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["over-tolerance"]


@pytest.mark.parametrize("flag", [("--tol-scale", "10"), ("--threads", "2")])
def test_verify_has_no_tolerance_scale_or_threads(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "combinatorics", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_schema_command_prints_registry(capsys):
    assert main(["schema", "--print"]) == 0
    schemas = json.loads(capsys.readouterr().out)
    assert "scenario" in schemas
    # no input holds a bare operator, so no operator format is published
    assert "operator" not in schemas


def test_console_script():
    # without an installed entry point, run the same main as a module
    if shutil.which("qcorr"):
        cmd = ["qcorr"]
    else:
        cmd = [sys.executable, "-m", "qcorr.cli"]
    proc = subprocess.run(
        cmd + ["schema", "--print"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)
