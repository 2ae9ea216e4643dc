"""Command-line contract: exit codes, file outputs, determinism."""

import ast
import contextlib
import errno
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcorr
from bruteforce import naive_moments, qcorr_run, result_files, stdlib_text, wire
from qcorr import cli, serialize
from qcorr.bbgky import (
    additive_dispersion,
    marginal_state_from_density,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from qcorr.cli import ALL_SCHEMAS, load_scenario, main
from qcorr.evolution import evolve_density_sequence
from qcorr import verify
from qcorr.hierarchy import DensityState, cluster_expand, cluster_invert, solve_hierarchy
from qcorr.operators import ManyBodyOperator, trace_norm
from qcorr.partitions import ParticleSet
from qcorr.presets import (
    chaos_one_particle,
    random_density_state,
    random_hermitian,
    random_system,
    rng_from_seed,
)
from qcorr.serialize import (
    REPORT_SCHEMA,
    decode_raw_matrix,
    encode_raw_matrix,
    encode_sequence,
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


def test_run_writes_expected_files(tmp_path):
    code, out = qcorr_run(tmp_path, BASE_SCENARIO, "base")
    assert code == 0
    names = set(os.listdir(out))
    assert names == {
        "manifest.json",
        "scenario.json",
        "evolve.json",
        "bbgky.json",
        "bbgky.csv",
        "observables.json",
        "observables.csv",
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest.keys() == {"files", "package", "seed"}
    assert manifest["package"] == {"name": "qcorr", "version": qcorr.__version__}
    assert manifest["files"] == sorted(names - {"manifest.json", "scenario.json"})
    assert manifest["seed"] is None
    assert (out / "scenario.json").read_bytes() == (tmp_path / "base.json").read_bytes()


def test_rerun_is_byte_identical(tmp_path):
    _, first = qcorr_run(tmp_path, BASE_SCENARIO, "a")
    _, second = qcorr_run(tmp_path, BASE_SCENARIO, "b")
    assert _read_dir(first) == _read_dir(second)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _env_without_blas(**blas):
    """os.environ with none of the BLAS thread variables but those given."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    return {**env, **blas}


def test_output_bytes_do_not_depend_on_the_blas_setting(tmp_path):
    # at d = 4, n_max = 4 OpenBLAS threads the propagator's products, and on
    # a multi-core host its default thread count changes evolve.json's bytes
    sc = {
        "system": {"preset": "random_hermitian", "seed": 0, "dim_single": 4, "orders": [2]},
        "initial": {"preset": {"preset": "random_density", "seed": 1}},
        "times": [0.5],
        "n_max": 4,
        "tasks": ["evolve"],
    }
    path = _write_scenario(tmp_path, sc)
    outs = []
    for name, env in [("unset", _env_without_blas()),
                      ("one", _env_without_blas(**dict.fromkeys(_BLAS_VARS, "1")))]:
        out = tmp_path / name
        cmd = [sys.executable, "-m", "qcorr.cli", "run", "--scenario", path, "--out", str(out)]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
        outs.append(_read_dir(out))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("before, blas, expected", [
    ("", {}, dict.fromkeys(_BLAS_VARS, "1")),
    ("", {"OMP_NUM_THREADS": ""}, dict.fromkeys(_BLAS_VARS, "1")),
    ("", {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"}),
    ("import numpy; ", {}, {}),
], ids=["unset", "empty", "chosen", "numpy-first"])
def test_cli_pins_one_blas_thread_unless_a_count_is_chosen(before, blas, expected):
    code = f"{before}import json, os, qcorr.cli; print(json.dumps(dict(os.environ)))"
    proc = subprocess.run([sys.executable, "-c", code], env=_env_without_blas(**blas),
                          check=True, capture_output=True, text=True)
    env = json.loads(proc.stdout)
    assert {k: env[k] for k in _BLAS_VARS if env.get(k)} == expected


@pytest.fixture
def no_task_runs(monkeypatch):
    """Make every task fail the test if it runs."""

    def refuse(sc):
        raise AssertionError("a task ran before the run was refused")

    for task in cli._TASK_FNS:
        monkeypatch.setitem(cli._TASK_FNS, task, refuse)


def test_runs_are_sequential_and_threads_takes_only_1(tmp_path, capsys):
    # --threads 1 is the benchmark's command line and changes nothing
    _, plain = qcorr_run(tmp_path, BASE_SCENARIO, "plain")
    _, one = qcorr_run(tmp_path, BASE_SCENARIO, "one", ("--threads", "1"))
    assert _read_dir(plain) == _read_dir(one)
    capsys.readouterr()
    # argparse refuses any other count before the scenario is read
    for count in ("0", "2", "4"):
        with pytest.raises(SystemExit) as exc:
            qcorr_run(tmp_path, BASE_SCENARIO, f"threads-{count}", ("--threads", count))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threads: invalid choice: {count} " in err
        assert "Traceback" not in err
        assert not (tmp_path / f"threads-{count}").exists()


def test_seed_override(tmp_path):
    _, base = qcorr_run(tmp_path, BASE_SCENARIO, "noseed")
    _, overridden = qcorr_run(tmp_path, BASE_SCENARIO, "seed99", ("--seed", "99"))
    assert (base / "evolve.json").read_bytes() != (
        overridden / "evolve.json"
    ).read_bytes()

    # the manifest records the seed, and every result file matches a run of
    # the document with both seeds written in
    assert json.loads((overridden / "manifest.json").read_text())["seed"] == 99
    pinned = json.loads(json.dumps(BASE_SCENARIO))
    pinned["system"]["seed"] = 99
    pinned["initial"]["preset"]["seed"] = 100
    _, direct = qcorr_run(tmp_path, pinned, "pinned")
    assert result_files(direct) == result_files(overridden)


def test_seed_override_needs_a_preset(tmp_path, capsys):
    # a seed that nothing draws from would leave no trace in the run
    base = load_scenario(BASE_SCENARIO)
    system = {"dim_single": 2, "one_body": encode_raw_matrix(base.spec.one_body),
              "potentials": {"2": encode_raw_matrix(base.spec.potentials[2])}}
    explicit = dict(
        BASE_SCENARIO,
        system=wire(system),
        initial=wire({"correlation": serialize.encode_sequence(base.initial.seq, "correlation")}),
    )
    code, out = qcorr_run(tmp_path, explicit, "explicit", ("--seed", "99"))
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid request: --seed is read by no preset: "
        "the system and the initial data are explicit\n"
    )
    assert not out.exists()

    # one preset takes its seed, N for the system and N + 1 for the initial
    # data, and the manifest records N
    for field, seed in (("system", 99), ("initial", 100)):
        sc = dict(explicit, **{field: BASE_SCENARIO[field]})
        _, plain = qcorr_run(tmp_path, sc, f"{field}-plain")
        code, seeded = qcorr_run(tmp_path, sc, f"{field}-seeded", ("--seed", "99"))
        assert code == 0
        assert json.loads((seeded / "manifest.json").read_text())["seed"] == 99
        pinned = json.loads(json.dumps(sc))
        preset = pinned[field] if field == "system" else pinned[field]["preset"]
        preset["seed"] = seed
        _, direct = qcorr_run(tmp_path, pinned, f"{field}-pinned")
        assert result_files(direct) == result_files(seeded)
        assert _read_dir(seeded)["evolve.json"] != _read_dir(plain)["evolve.json"]
    capsys.readouterr()


def test_seed_override_draws_the_initial_data_apart_from_the_system(tmp_path, capsys):
    # with one seed in both presets the two draws shared one random stream,
    # and g_1(0) came out a multiple of h to round-off
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["initial"]["preset"]["symmetric"] = True
    sc.update(times=[0.0], tasks=["hierarchy"])
    code, out = qcorr_run(tmp_path, sc, "seeded", ("--seed", "99"))
    assert code == 0
    (state,) = json.loads((out / "hierarchy.json").read_text())["states"]
    g1 = decode_raw_matrix(state["components"][0])
    h = random_system(99, dim_single=2, orders=(2,)).one_body
    c = np.vdot(h, g1) / np.vdot(h, h)
    assert np.linalg.norm(g1 - c * h) > 1e-2 * np.linalg.norm(g1)
    capsys.readouterr()


def test_a_seeded_run_validates_its_scenario_once(tmp_path, monkeypatch, capsys):
    # --seed reaches the presets inside load_scenario, which judges the
    # document once, as written
    calls = []

    def counted(obj, schema, what="document"):
        calls.append(what)
        return validate(obj, schema, what)

    monkeypatch.setattr(cli, "validate", counted)
    code, _ = qcorr_run(tmp_path, BASE_SCENARIO, "seeded", ("--seed", "99"))
    assert code == 0
    assert calls == ["scenario"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "seed, initial_seed", [(0, 1), (99, 100), (2**64 - 1, 0)], ids=["0", "99", "max"]
)
def test_a_seed_draws_what_the_document_with_both_seeds_written_in_draws(seed, initial_seed):
    pinned = json.loads(json.dumps(BASE_SCENARIO))
    pinned["system"]["seed"] = seed
    pinned["initial"]["preset"]["seed"] = initial_seed
    got, want = load_scenario(BASE_SCENARIO, seed=seed), load_scenario(pinned)
    assert got.spec.hbar == want.spec.hbar
    assert got.spec.one_body.tobytes() == want.spec.one_body.tobytes()
    assert got.spec.potentials.keys() == want.spec.potentials.keys()
    for k, phi in got.spec.potentials.items():
        assert phi.tobytes() == want.spec.potentials[k].tobytes()
    assert type(got.initial) is type(want.initial)
    assert got.initial.seq.scalar0 == want.initial.seq.scalar0
    assert got.initial.seq.components.keys() == want.initial.seq.components.keys()
    for n, op in got.initial.seq.components.items():
        assert op.matrix.tobytes() == want.initial.seq.components[n].matrix.tobytes()


@pytest.mark.parametrize(
    "system, hbar, scale",
    [
        ({"preset": "random_hermitian", "seed": 7, "orders": [2, 3]}, 1.0, 1.0),
        ({"preset": "random_hermitian", "seed": 7, "orders": [2, 3], "hbar": 2,
          "scale": 3}, 2.0, 3.0),
    ],
    ids=["defaults", "integer-hbar-and-scale"],
)
def test_system_preset_path(system, hbar, scale):
    got = load_scenario(dict(BASE_SCENARIO, system=system)).spec
    want = random_system(7, dim_single=2, orders=(2, 3), hbar=hbar, scale=scale)
    assert np.array_equal(got.one_body, want.one_body)
    assert np.array_equal(got.potentials[3], want.potentials[3])
    assert type(got.hbar) is float and got.hbar == hbar


def test_preset_schemas_are_the_preset_table():
    # the schema's preset branches are built from the table, so only the
    # builders remain to check: each takes every field its entry lists
    assert set(cli._PRESETS) == {"random_hermitian", "random_correlation", "random_density"}
    for name, (build, fields) in cli._PRESETS.items():
        assert {"seed", *fields} <= set(inspect.signature(build).parameters)


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, (_, fields) in cli._PRESETS.items() for field in fields],
)
def test_every_preset_default_passes_its_own_field_schema(name, field):
    # a default never passes through validate when a run fills it in
    default, schema = cli._PRESETS[name][1][field]
    validate(default, schema, f"{name} default {field}")


@pytest.mark.parametrize("name", list(cli._PRESETS))
def test_a_preset_body_of_all_its_defaults_is_a_valid_scenario(name):
    _, fields = cli._PRESETS[name]
    body = {"preset": name, "seed": 5, **{key: default for key, (default, _) in fields.items()}}
    if name == "random_hermitian":
        doc = dict(BASE_SCENARIO, system=body)
    else:
        doc = dict(BASE_SCENARIO, initial={"preset": body})
    validate(doc, ALL_SCHEMAS["scenario"], "scenario")
    load_scenario(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("system", dict(BASE_SCENARIO["system"], seed=-1), "'system/seed': -1 is less"),
        ("initial", [], "'initial': an array is not of type 'object'"),
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
        code, out = qcorr_run(tmp_path, sc, name, extra)
        assert code == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"schema violation: scenario at {message}")
    assert len(errors[0].splitlines()) == 1


@pytest.mark.parametrize("routine", ["eigh", "svd", "eigvalsh"])
def test_linear_algebra_failure_exits_1_in_one_line(tmp_path, capsys, monkeypatch, routine):
    # LinAlgError is a ValueError, but the input is not at fault
    reached = []

    def fail(*args, **kwargs):
        reached.append(routine)
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, fail)
    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, tasks=["bbgky"]), "out")
    assert reached
    assert code == 1
    assert capsys.readouterr().err == f"numeric failure: {routine} did not converge\n"
    assert not out.exists()


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


def test_out_naming_an_existing_file_exits_2(tmp_path, capsys, no_task_runs):
    # the output path is refused before any task runs, and nothing is written
    taken = tmp_path / "taken"
    taken.write_text("keep")
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory")]:
        code = main(["run", "--scenario", path, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"cannot write output {out}: {reason}\n"
        assert taken.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == ["scenario.json", "taken"]


@pytest.mark.parametrize(
    "out_name, existing",
    [("out", False), ("out", True), ("a/b/out", False)],
    ids=["absent", "existing", "absent-with-its-parents"],
)
def test_write_error_leaves_the_output_directory_as_it_was(
    tmp_path, capsys, monkeypatch, out_name, existing
):
    # an OSError on the second file written: exit 2, the target as before
    # (absent, or with its earlier files), no missing parent of it created,
    # and no staging directory left
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    out = tmp_path / out_name
    top = out_name.split("/")[0]
    before = {}
    if existing:
        out.mkdir()
        before = {"manifest.json": b"old", "evolve.json": b"old", "keep.txt": b"keep"}
        for name, data in before.items():
            (out / name).write_bytes(data)
    opened = []

    def failing_open(file, mode="r", *a, **kw):
        if "w" in mode:
            opened.append(file)
            if len(opened) == 2:
                raise OSError(28, "No space left on device", file)
        return open(file, mode, *a, **kw)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code = main(["run", "--scenario", path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"cannot write output {out}: No space left on device\n"
    assert len(opened) == 2
    assert sorted(os.listdir(tmp_path)) == [top, "scenario.json"][not existing:]
    assert (_read_dir(out) if existing else {}) == before

    # the same run without the fault: every file moves in, the others stay
    monkeypatch.undo()
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    _, fresh = qcorr_run(tmp_path, BASE_SCENARIO, "fresh")
    written = _read_dir(out)
    assert written == {**_read_dir(fresh), **({"keep.txt": b"keep"} if existing else {})}
    assert sorted(os.listdir(tmp_path)) == sorted(["fresh", "fresh.json", top, "scenario.json"])


class _FullAfterOnePiece:
    """A staging file whose first write goes through and whose next write
    fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh
        self.pieces = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.pieces:
            raise OSError(28, "No space left on device")
        self.pieces.append(data)
        return self.fh.write(data)


def _out_dir_as_before(tmp_path, existing):
    """The output directory of a failing run: absent, or holding old files."""
    out = tmp_path / "out"
    before = {}
    if existing:
        out.mkdir()
        before = {"manifest.json": b"old", "evolve.json": b"old", "keep.txt": b"keep"}
        for name, data in before.items():
            (out / name).write_bytes(data)
    return out, before


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_a_write_error_mid_stream_leaves_the_output_directory_as_it_was(
    tmp_path, capsys, monkeypatch, existing
):
    # evolve.json's staging file takes the first piece of the stream, then
    # the disk is full: exit 2, the target as before, no staging directory
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    out, before = _out_dir_as_before(tmp_path, existing)
    staged = []

    def failing_open(file, mode="r", *a, **kw):
        fh = open(file, mode, *a, **kw)
        if "w" in mode and os.path.basename(file) == "evolve.json":
            staged.append(_FullAfterOnePiece(fh))
            return staged[-1]
        return fh

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code = main(["run", "--scenario", path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"cannot write output {out}: No space left on device\n"
    assert [s.pieces for s in staged] == [[b"{"]]
    assert sorted(os.listdir(tmp_path)) == ["out", "scenario.json"][not existing:]
    assert (_read_dir(out) if existing else {}) == before


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
def test_a_result_that_cannot_be_encoded_leaves_the_output_directory_as_it_was(
    tmp_path, capsys, monkeypatch, existing
):
    # a result is encoded while it is written, so json's refusal of a NaN
    # comes from the staging directory, which goes with it
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    out, before = _out_dir_as_before(tmp_path, existing)
    evolve = cli._TASK_FNS["evolve"]
    monkeypatch.setitem(
        cli._TASK_FNS, "evolve", lambda sc: dict(evolve(sc), times=[float("nan")])
    )
    code = main(["run", "--scenario", path, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid request: Out of range float values are not JSON compliant")
    assert len(err.splitlines()) == 1
    assert sorted(os.listdir(tmp_path)) == ["out", "scenario.json"][not existing:]
    assert (_read_dir(out) if existing else {}) == before


# suites run through `qcorr verify` only: a scenario has no route to them.
# Chaos data are a correlation sequence that holds only g_1, so there is no
# chaos task, preset or initial form
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tasks", ["verify:group-law"], "'tasks/0': 'verify:group-law' is not one of"),
        ("tolerances", {"tol_scale": 1.0}, "'': property 'tolerances' is not allowed"),
        (
            "initial",
            {"preset": {"preset": "chaos", "seed": 12}},
            "'initial/preset/preset': 'chaos' is not one of",
        ),
        (
            "initial",
            {"chaos": {"labels": [1], "dim_single": 2, "matrix": wire(encode_raw_matrix(
                chaos_one_particle(31, 2, norm=0.8).matrix))}},
            "'initial': property 'chaos' is not allowed",
        ),
        ("tasks", ["chaos"], "'tasks/0': 'chaos' is not one of"),
    ],
    ids=["verify-task", "tolerances", "chaos-preset", "chaos-initial", "chaos-task"],
)
def test_suite_route_and_chaos_preset_exit_2(tmp_path, capsys, field, value, message):
    sc = dict(BASE_SCENARIO, **{field: value})
    code, out = qcorr_run(tmp_path, sc, "no-route")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"schema violation: scenario at {message}")
    assert len(err.splitlines()) == 1


# a task name and a potential order match only as whole strings: with a
# trailing newline accepted, "evolve\n" would run no task, and "2\n" would
# replace the potential that "2" names
def test_a_task_name_with_a_trailing_newline_exits_2(tmp_path, capsys):
    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, tasks=["evolve\n"]), "task")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "schema violation: scenario at 'tasks/0': 'evolve\\n' is not one of "
        "['evolve', 'hierarchy', 'bbgky', 'iterate', 'observables']\n"
    )


def test_a_potential_order_with_a_trailing_newline_exits_2(tmp_path, capsys):
    rng = rng_from_seed(5)
    system = {
        "dim_single": 2,
        "one_body": wire(encode_raw_matrix(random_hermitian(rng, 2))),
        "potentials": {
            "2": wire(encode_raw_matrix(random_hermitian(rng, 4))),
            "2\n": wire(encode_raw_matrix(np.zeros((4, 4)))),
        },
    }
    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, system=system), "potentials")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "schema violation: scenario at 'system/potentials': "
        "property '2\\n' is not allowed\n"
    )


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
        (
            # no output writes a marginal sequence, and no tag reads one
            {"density": dict(_CORRELATION_AS_DENSITY, kind="marginal")},
            "scenario at 'initial/density/kind': "
            "'marginal' is not one of ['correlation', 'density']",
        ),
    ],
    ids=[
        "random_correlation-trace_scale",
        "random_density-norms",
        "random_density-traceless",
        "random_density-symmetric",
        "correlation-kind-density",
        "density-kind-marginal",
    ],
)
def test_unread_initial_field_exits_2(tmp_path, capsys, initial, message):
    sc = dict(BASE_SCENARIO, initial=initial)
    code, out = qcorr_run(tmp_path, sc, "unread")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"schema violation: {message}\n"


# schema-valid, but the second row is shorter than the first
_RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("observable", _RAGGED, "observable"),
        ("system", {"dim_single": 2, "one_body": _RAGGED}, "one_body"),
        ("initial", {"correlation": {
            "dim_single": 2, "n_max": 1, "scalar0": [0, 0], "components": [_RAGGED],
        }}, "initial correlation component 1"),
    ],
    ids=["observable", "one_body", "sequence-component"],
)
def test_ragged_matrix_exits_2_with_a_clear_message(tmp_path, capsys, field, value, name):
    sc = dict(BASE_SCENARIO, **{field: value})
    code, out = qcorr_run(tmp_path, sc, "ragged")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"schema violation: {name}: "
        "ragged matrix of 2 rows: row 2 has 1 entries, row 1 has 2\n"
    )


# schema-valid, but two rows of three entries
_NON_SQUARE = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]
_EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("observable", _NON_SQUARE, "observable"),
        ("system", {"dim_single": 2, "one_body": _NON_SQUARE}, "one_body"),
        ("system", {"dim_single": 2, "one_body": _EYE2, "potentials": {"2": _NON_SQUARE}},
         "potential[2]"),
        ("initial", {"density": {
            "dim_single": 2, "n_max": 2, "scalar0": [1, 0], "components": [_EYE2, _NON_SQUARE],
        }}, "initial density component 2"),
    ],
    ids=["observable", "one_body", "potential", "density-component"],
)
def test_non_square_matrix_exits_2_naming_it(tmp_path, capsys, field, value, name):
    sc = dict(BASE_SCENARIO, **{field: value})
    code, out = qcorr_run(tmp_path, sc, "non-square")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"schema violation: {name}: matrix must be square, got shape (2, 3)\n"
    )


def _count_decoded_matrices(monkeypatch) -> list:
    """A list that grows by one for each matrix that decode_raw_matrix
    decodes, wrapped in every qcorr module that binds it."""
    real = serialize.decode_raw_matrix
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qcorr") and getattr(module, "decode_raw_matrix", None) is real:
            monkeypatch.setattr(module, "decode_raw_matrix", counting)
    return calls


# an explicit d = 2 density sequence whose own n_max is 3
_DENSITY_D2 = {"dim_single": 2, "n_max": 3, "scalar0": [1, 0]}
_EYE4 = wire(encode_raw_matrix(np.eye(4)))


@pytest.mark.parametrize(
    "d, components, message",
    [
        (3, [_EYE2], "initial data does not match the system dimension"),
        (2, [_EYE2, _EYE4], "initial data has components beyond n_max=1"),
        (2, [_EYE2, None, _RAGGED], "initial data has components beyond n_max=1"),
    ],
    ids=["dim_single", "past-n_max", "past-n_max-after-a-gap"],
)
def test_the_sequence_header_is_judged_before_any_matrix_is_decoded(
    tmp_path, capsys, monkeypatch, d, components, message
):
    calls = _count_decoded_matrices(monkeypatch)
    sc = dict(
        BASE_SCENARIO,
        system=dict(BASE_SCENARIO["system"], dim_single=d),
        initial={"density": dict(_DENSITY_D2, components=components)},
        n_max=1,
        s_values=[1],
        tasks=["evolve"],
    )
    code, out = qcorr_run(tmp_path, sc, "header")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"schema violation: {message}\n"
    assert calls == []


def test_a_null_tail_past_n_max_decodes_each_matrix_once(tmp_path, monkeypatch):
    calls = _count_decoded_matrices(monkeypatch)
    initial = {"density": dict(_DENSITY_D2, components=[_EYE2, None, None])}
    sc = load_scenario(dict(BASE_SCENARIO, initial=initial, n_max=1, s_values=[1]))
    assert len(calls) == 1
    seq = sc.initial.seq
    assert (seq.dim_single, seq.n_max, seq.support) == (2, 1, (1,))


@pytest.mark.parametrize(
    "system, message",
    [
        (dict(BASE_SCENARIO["system"], orders=[2, 3]),
         "the iteration series is defined for two-body systems"),
        ({"dim_single": 2, "one_body": _EYE2}, "the iteration series needs a two-body potential"),
    ],
    ids=["orders-2-3", "no-potential"],
)
def test_iterate_off_a_two_body_system_exits_2_before_any_task_runs(
    tmp_path, capsys, no_task_runs, system, message
):
    sc = dict(BASE_SCENARIO, system=system, tasks=["evolve", "iterate"])
    code, out = qcorr_run(tmp_path, sc, "not-two-body")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"invalid request: {message}\n"


def test_a_plain_run_validates_the_document_once(tmp_path, monkeypatch):
    real = serialize.validate
    calls = []

    def counting(obj, schema, what="document"):
        calls.append(what)
        return real(obj, schema, what)

    monkeypatch.setattr(serialize, "validate", counting)
    monkeypatch.setattr(cli, "validate", counting)
    sc = dict(BASE_SCENARIO, system={
        "dim_single": 2, "one_body": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
    })
    for name, doc in [("preset", BASE_SCENARIO), ("explicit", sc)]:
        calls.clear()
        code, _ = qcorr_run(tmp_path, doc, name)
        assert code == 0
        assert calls == ["scenario"]


def test_run_files_are_one_line_of_canonical_json(tmp_path):
    # every file the run encodes is the standard library's text of its own
    # decoded value, so the matrices orjson wrote read as json.dumps writes them
    initial = {"preset": {"preset": "random_correlation", "seed": 12, "norms": 0.3,
                          "symmetric": True}}
    sc = dict(BASE_SCENARIO, initial=initial, n_max=3, tasks=list(cli._TASK_FNS))
    code, out = qcorr_run(tmp_path, sc, "compact")
    assert code == 0
    # explicit density data, with int entries: scenario.json is the file as
    # read, not encoded again
    density = json.loads((out / "evolve.json").read_text())["states"][1]
    density["components"][0][0][0][1] = 0
    observable = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
    explicit = dict(sc, initial={"density": density}, observable=observable)
    code, out_explicit = qcorr_run(tmp_path, explicit, "compact-explicit")
    assert code == 0
    assert (out_explicit / "scenario.json").read_bytes() == (
        tmp_path / "compact-explicit.json"
    ).read_bytes()
    for directory in (out, out_explicit):
        names = sorted(
            name for name in os.listdir(directory)
            if name.endswith(".json") and name != "scenario.json"
        )
        assert len(names) == len(cli._TASK_FNS) + 1
        for name in names:
            text = (directory / name).read_text()
            assert text.count("\n") == 1
            assert text == stdlib_text(json.loads(text)), (directory.name, name)


def test_d4_run_files_are_canonical_json(tmp_path):
    # at d = 4 and n_max = 4 nearly every entry lies in [1e-9, 1e-4), where
    # orjson's layout differs from float.__repr__'s
    sc = {
        "system": {"preset": "random_hermitian", "seed": 11, "orders": [2], "dim_single": 4},
        "initial": {"preset": {"preset": "random_correlation", "seed": 12, "norms": 0.05}},
        "times": [0.0, 0.3],
        "n_max": 4,
        "tasks": ["evolve", "hierarchy"],
    }
    code, out = qcorr_run(tmp_path, sc, "d4")
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["evolve.json", "hierarchy.json", "manifest.json", "scenario.json"]
    for name in names[:3]:
        text = (out / name).read_text()
        assert text == stdlib_text(json.loads(text)), name
    for name in names[:2]:
        states = json.loads((out / name).read_text())["states"]
        x = np.abs(np.concatenate([np.ravel(c) for s in states for c in s["components"] if c]))
        assert np.count_nonzero((x >= 1e-9) & (x < 1e-4)) > 0.9 * x.size


def test_capacity_guards_exit_3(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["n_max"] = 5
    code, out = qcorr_run(tmp_path, sc, "too-deep")
    assert code == 3
    assert not out.exists()

    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["times"] = [100.0]
    code, _ = qcorr_run(tmp_path, sc, "too-long")
    assert code == 3
    capsys.readouterr()


# an integer field written as a float is quoted as the document holds it,
# not as the hundreds of digits of its int(); an int literal reads as before
_GUARD = "capacity guard: "
_SCHEMA = "schema violation: "


@pytest.mark.parametrize("field, value, code, line", [
    ("n_max", 1e300, 3, _GUARD + "n_max=1e+300 exceeds the supported 4"),
    ("n_max", 5, 3, _GUARD + "n_max=5 exceeds the supported 4"),
    ("orders", [1e300], 3,
     _GUARD + "potential of order 1e+300 has dimension 2^1e+300, above the cap 1024"),
    ("orders", [11], 3, _GUARD + "potential of order 11 has dimension 2^11, above the cap 1024"),
    ("s_values", [1e300], 2, _SCHEMA + "s=1e+300 outside [1, n_max=2]"),
    ("s_values", [3], 2, _SCHEMA + "s=3 outside [1, n_max=2]"),
    ("dim_single", 1e300, 3, _GUARD + "total dimension 1e+300^2 exceeds 256"),
    ("dim_single", 40, 3, _GUARD + "total dimension 40^2 exceeds 256"),
], ids=[f"{field}-{kind}" for field in ("n_max", "orders", "s_values", "dim_single")
        for kind in ("float", "int")])
def test_an_integer_field_is_quoted_as_written(
    tmp_path, capsys, no_task_runs, field, value, code, line
):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    if field in ("orders", "dim_single"):
        sc["system"][field] = value
    else:
        sc[field] = value
    got, out = qcorr_run(tmp_path, sc, "quoted")
    assert got == code
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == line + "\n"
    assert len(err) < 200


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

    # load_scenario draws through the builder in the preset table
    _, defaults = cli._PRESETS["random_hermitian"]
    monkeypatch.setitem(cli._PRESETS, "random_hermitian", (refuse, defaults))
    sc = dict(BASE_SCENARIO, system=system, n_max=n_max, s_values=[1])
    code, out = qcorr_run(tmp_path, sc, "too-wide")
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


def _probe(*argv, script=_PROBE):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qcorr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env=env,
    )


# runs the CLI on argv, then reports the collector's state on stdout
_GC_PROBE = (
    "import gc, sys\n"
    "from qcorr.cli import main\n"
    "before = gc.get_freeze_count()\n"
    "code = main(sys.argv[1:])\n"
    "print(before, gc.get_freeze_count() > 0, gc.isenabled())\n"
    "sys.exit(code)\n"
)


def test_a_run_freezes_what_it_loaded_and_keeps_collecting(tmp_path):
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    proc = _probe("run", "--scenario", path, "--out", str(tmp_path / "out"), script=_GC_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("0 True True\n")


def test_main_freezes_at_most_once_per_process(tmp_path, monkeypatch, capsys):
    frozen = []
    monkeypatch.setattr(cli.gc, "get_freeze_count", lambda: len(frozen))
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append("freeze"))
    for name in ("a", "b"):
        assert qcorr_run(tmp_path, BASE_SCENARIO, name)[0] == 0
    assert frozen == ["freeze"]
    # a process that froze its objects already is left alone
    frozen.clear()
    monkeypatch.setattr(cli.gc, "get_freeze_count", lambda: 1)
    assert qcorr_run(tmp_path, BASE_SCENARIO, "c")[0] == 0
    assert frozen == []
    capsys.readouterr()


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
        "schema violation: scenario at 'tasks/0': 'simulate' is not one of "
        "['evolve', 'hierarchy', 'bbgky', 'iterate', 'observables']\n"
        "verify imported: False\n"
        "jsonschema imported: False\n"
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


def test_a_five_task_run_calls_no_kron(tmp_path, monkeypatch):
    # embeddings, star products and permutation sums move slots through
    # strided views: a run that never calls np.kron writes the same bytes
    sc = {
        "system": {"preset": "random_hermitian", "seed": 31, "orders": [2], "dim_single": 3},
        "initial": {"preset": {"preset": "random_correlation", "seed": 32, "norms": 0.2}},
        "times": [0.0, 0.2],
        "n_max": 3,
        "quadrature": {"order": 2, "nodes_per_dim": 4},
        "tasks": list(cli._TASK_FNS),
    }
    code, plain = qcorr_run(tmp_path, sc, "plain")
    assert code == 0

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called on the run path")

    monkeypatch.setattr(np, "kron", no_kron)
    code, strided = qcorr_run(tmp_path, sc, "strided")
    assert code == 0
    assert result_files(strided) == result_files(plain)
    assert len(result_files(plain)) == 8


def test_non_hermitian_observable_exits_2(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["observable"] = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    code, out = qcorr_run(tmp_path, sc, "non-hermitian")
    assert code == 2
    assert not out.exists()
    assert "observable must be Hermitian" in capsys.readouterr().err

    # a Hermitian observable with complex entries is accepted
    sc["observable"] = [[[1, 0], [0, -2]], [[0, 2], [-1, 0]]]
    code, _ = qcorr_run(tmp_path, sc, "hermitian")
    assert code == 0
    capsys.readouterr()


def test_one_hermitian_rule_for_system_matrices_and_observable(tmp_path, capsys):
    # 1e-3 [[0, 1], [1 + 1e-8, 0]]: ||m - m^dagger||_F = 1.4e-11 at a norm of
    # 1.4e-3, far above 1e-10 times the norm, so both fields refuse it
    m = [[[0, 0], [1e-3, 0]], [[1.00000001e-3, 0], [0, 0]]]
    explicit = dict(BASE_SCENARIO, system={"dim_single": 2, "one_body": m})
    code, out = qcorr_run(tmp_path, explicit, "one-body")
    assert code == 2
    assert not out.exists()
    assert "one_body must be Hermitian" in capsys.readouterr().err

    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, observable=m), "observable")
    assert code == 2
    assert not out.exists()
    assert "observable must be Hermitian" in capsys.readouterr().err


def test_hermitian_refusal_quotes_a_finite_ratio_at_the_edge_of_the_range(
    tmp_path, capsys
):
    # ||m - m^dagger||_F is about 4.8e308 here, above the largest double;
    # the message quotes it relative to ||m||_F, which stays finite
    m = [[[1e308, 0], [1.7e308, 0]], [[-1.7e308, 0], [1e308, 0]]]
    sc = dict(BASE_SCENARIO, system={"dim_single": 2, "one_body": m})
    code, out = qcorr_run(tmp_path, sc, "huge")
    assert code == 2
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert "one_body must be Hermitian: ||m - m^dagger||_F = 1.724e+00 ||m||_F" in lines[0]
    assert "inf" not in lines[0]


@pytest.mark.parametrize(
    "field, name",
    [
        ("one_body", "one_body"),
        ("potential", "potential[2]"),
        ("observable", "observable"),
        ("correlation", "initial correlation component 1"),
        ("density", "initial density component 2"),
    ],
)
def test_non_finite_entry_exits_2_naming_the_field(field, name):
    # reading a scenario file refuses an overflowing literal before any
    # decoder sees it, but a document built in process can hold inf; the
    # decoders refuse it with the ValueError that `qcorr run` maps to exit 2
    inf = float("inf")
    bad2 = [[[inf, 0], [0, 0]], [[0, 0], [1, 0]]]
    bad4 = [[[inf if i == j == 0 else 0, 0] for j in range(4)] for i in range(4)]
    sc = json.loads(json.dumps(BASE_SCENARIO))
    if field == "one_body":
        sc["system"] = {"dim_single": 2, "one_body": bad2}
    elif field == "potential":
        one_body = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        sc["system"] = {"dim_single": 2, "one_body": one_body, "potentials": {"2": bad4}}
    elif field == "observable":
        sc["observable"] = bad2
    else:
        eye = [[[float(i == j), 0] for j in range(2)] for i in range(2)]
        components = [eye, bad4] if field == "density" else [bad2, None]
        scalar0 = [1, 0] if field == "density" else [0, 0]
        sc["initial"] = {field: {
            "dim_single": 2, "n_max": 2, "scalar0": scalar0, "components": components,
        }}
    want = rf"^{re.escape(name)}: matrix entries must be finite"
    with pytest.raises(ValueError, match=want):
        load_scenario(sc)


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
    code, out = qcorr_run(tmp_path, _one_particle_density([0.3, 0.1]), "non-hermitian")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "initial density component 1 must be Hermitian" in err
    # ||D_1 - D_1^dagger||_F = 0.2 against ||D_1||_F = sqrt(0.14)
    assert "||m - m^dagger||_F = 5.345e-01 ||m||_F exceeds 1e-10 ||m||_F" in err
    # correlation data expand to a density that is Hermitian exactly when they are
    sc = _one_particle_density([0.3, 0.1])
    sc["initial"] = {"correlation": dict(sc["initial"]["density"], scalar0=[0, 0])}
    assert qcorr_run(tmp_path, sc, "correlation")[0] == 2
    assert "initial correlation component 1 must be Hermitian" in capsys.readouterr().err

    # evolve writes complex numbers, so it runs on the same data
    sc = _one_particle_density([0.3, 0.1], tasks=["evolve"])
    assert qcorr_run(tmp_path, sc, "evolve")[0] == 0
    assert qcorr_run(tmp_path, _one_particle_density([0.3, 0]), "hermitian")[0] == 0
    capsys.readouterr()


def test_min_eig_is_null_for_a_non_hermitian_marginal(tmp_path):
    # at t = 0, F_1 = D_1 / (1 + tr D_1) with D_1 = diag(0.3 + 0.1i, 0.2) has
    # the eigenvalues 0.20354 + 0.05310i and 0.13274 - 0.00885i, so the
    # lowest eigenvalue of (F + F^dagger) / 2, 0.13274, is neither
    for d11, hermitian in (([0.3, 0.1], False), ([0.3, 0], True)):
        sc = _one_particle_density(d11, tasks=["bbgky", "iterate"])
        sc["times"] = [0.0]
        code, out = qcorr_run(tmp_path, sc, f"min-eig-{hermitian}")
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


def test_overflow_is_a_numeric_failure(tmp_path, capsys, no_task_runs):
    # the cluster expansion overflows, of drawn correlation data or of an
    # explicit g_1 = 1e200 * 1 (its square in D_2 = g_2 + g_1 g_1), and is
    # refused as the initial data's before any task runs
    drawn = {"preset": dict(BASE_SCENARIO["initial"]["preset"], norms=1e200)}
    g1 = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
    explicit = {"correlation": {"dim_single": 2, "n_max": 1, "scalar0": [0, 0],
                                "components": [g1]}}
    for name, initial in [("drawn", drawn), ("explicit", explicit)]:
        code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, initial=initial), name)
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "numeric failure: initial data: overflow encountered in multiply\n"
        )


def test_overflowing_preset_is_a_numeric_failure(tmp_path, capsys):
    # trace_scale**2 overflows while the preset is drawn, before any task.
    # Python's OverflowError carries (errno, message): only the message is
    # quoted
    for seed, n_max in [(12, 2), (2, 3)]:
        initial = {
            "preset": {"preset": "random_density", "seed": seed, "trace_scale": 1e200}
        }
        sc = dict(BASE_SCENARIO, initial=initial, n_max=n_max)
        code, out = qcorr_run(tmp_path, sc, f"overflow-preset-{seed}")
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"numeric failure: initial data: {os.strerror(errno.ERANGE)}\n"
        )


def test_extreme_matrix_entries_leak_no_warning(tmp_path, capsys):
    # entries of 1e200 overflow a plain Frobenius norm and subnormal ones the
    # reciprocal of a scale; the Hermiticity checks must still decide without
    # a numpy warning
    huge = [[[1e200, 0], [0, 0]], [[0, 0], [1e200, 0]]]
    sc = {
        "system": {"dim_single": 2, "one_body": huge},
        "initial": {"preset": {"preset": "random_density", "seed": 1}},
        "times": [0.1],
        "n_max": 2,
        "tasks": ["evolve"],
    }
    code, out = qcorr_run(tmp_path, sc, "huge-one-body")
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("capacity guard: phase bound")
    assert "Warning" not in err

    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["observable"] = huge
    code, out = qcorr_run(tmp_path, sc, "huge-observable")
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ")
    assert "Warning" not in err

    sc["observable"] = [[[1e-320, 0], [0, 0]], [[0, 0], [5e-324, 0]]]
    code, _ = qcorr_run(tmp_path, sc, "tiny-observable")
    assert code == 0
    assert "Warning" not in capsys.readouterr().err


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
    code, out = qcorr_run(tmp_path, sc, "literal")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("malformed JSON: ")
    assert json.dumps(literal) in err
    assert "RuntimeWarning" not in err
    assert len(err.splitlines()) == 1


_HUGE_INT = "9" * 401
_HUGE_MATRIX = "[[[{}, 0], [0, 0]], [[0, 0], [1, 0]]]"

# each case replaces a piece of the written scenario text with one that holds
# a number no double holds: a float literal that overflows, or an integer
# literal beyond the largest double
_BEYOND_A_DOUBLE = {
    "times-int": ('"times": [0.1, 0.3]', f'"times": [{_HUGE_INT}]'),
    "times-float": ('"times": [0.1, 0.3]', '"times": [1e400]'),
    "hbar-int": ('"dim_single": 2}', f'"dim_single": 2, "hbar": {_HUGE_INT}}}'),
    "hbar-float": ('"dim_single": 2}', '"dim_single": 2, "hbar": 1e400}'),
    "hbar-negative-float": ('"dim_single": 2}', '"dim_single": 2, "hbar": -1e400}'),
    "norms-int": ('"norms": 0.3', f'"norms": {_HUGE_INT}'),
    "norms-float": ('"norms": 0.3', '"norms": 1e400'),
    "orders-int": ('"orders": [2]', f'"orders": [-{_HUGE_INT}]'),
    "observable-int": (
        '"tasks"',
        f'"observable": {_HUGE_MATRIX.format(_HUGE_INT)}, "tasks"',
    ),
    "observable-float": (
        '"tasks"',
        f'"observable": {_HUGE_MATRIX.format("1e400")}, "tasks"',
    ),
    "one-body-float": (
        '"preset": "random_hermitian", "seed": 11, "orders": [2], ',
        f'"one_body": {_HUGE_MATRIX.format("1e400")}, ',
    ),
}


@pytest.mark.parametrize(
    "text, literal", _BEYOND_A_DOUBLE.values(), ids=list(_BEYOND_A_DOUBLE)
)
def test_number_beyond_a_double_exits_2(tmp_path, capsys, no_task_runs, text, literal):
    doc = json.dumps(BASE_SCENARIO)
    assert text in doc
    path = tmp_path / "scenario.json"
    path.write_text(doc.replace(text, literal))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    # the message quotes the literal, sign included, or its first 40 characters
    number = re.search(f"-?(1e400|{_HUGE_INT})", literal).group()[:40]
    assert err.startswith("malformed JSON: number is infinity when parsed as double")
    assert number in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["system", "initial"])
def test_seed_is_at_most_64_bits(tmp_path, capsys, where):
    for seed, expected in [(2**64 - 1, 0), (2**64, 2), (2**70, 2)]:
        sc = json.loads(json.dumps(BASE_SCENARIO))
        (sc["system"] if where == "system" else sc["initial"]["preset"])["seed"] = seed
        code, out = qcorr_run(tmp_path, sc, f"seed-{where}-{seed}")
        assert code == expected
        err = capsys.readouterr().err
        if expected:
            # orjson reads 2**64 and above as a float, so no seed is rounded
            assert not out.exists()
            path = "system/seed" if where == "system" else "initial/preset/seed"
            assert err.startswith(f"schema violation: scenario at '{path}': ")
            assert "is greater than the maximum of 18446744073709551615" in err
            assert len(err.splitlines()) == 1


def test_seed_option_is_at_most_64_bits(tmp_path, capsys):
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    for seed, expected in [(2**64 - 1, 0), (2**64, 2)]:
        out = tmp_path / f"out-{seed}"
        code = main(["run", "--scenario", path, "--out", str(out), "--seed", str(seed)])
        assert code == expected
        err = capsys.readouterr().err
        if expected:
            assert not out.exists()
            assert err == f"schema violation: --seed {seed} is outside [0, {2**64 - 1}]\n"
        else:
            # the initial preset's seed N + 1 wraps to 0
            assert json.loads((out / "manifest.json").read_text())["seed"] == seed
            pinned = json.loads(json.dumps(BASE_SCENARIO))
            pinned["system"]["seed"] = seed
            pinned["initial"]["preset"]["seed"] = 0
            _, direct = qcorr_run(tmp_path, pinned, "pinned")
            assert result_files(direct) == result_files(out)


def test_a_scenario_that_is_not_utf8_exits_2_naming_the_byte(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(BASE_SCENARIO).encode().replace(b"0.3", b"0.\xff"))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("invalid request: 'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


def _nested_text(depth: int, kind: str) -> str:
    """A scenario text whose system is a chain of depth arrays or objects."""
    if kind == "list":
        chain = "[" * depth + "]" * depth
    else:
        chain = '{"a": ' * depth + "1" + "}" * depth
    return '{"system": ' + chain + ', "tasks": ["evolve"]}'


@pytest.mark.parametrize("kind", ["list", "dict"])
@pytest.mark.parametrize("depth", [600, 5000])
def test_deep_nesting_exits_2(tmp_path, capsys, no_task_runs, depth, kind):
    path = tmp_path / "scenario.json"
    path.write_text(_nested_text(depth, kind))
    out = tmp_path / "out"
    code = main(["run", "--scenario", str(path), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (
        "schema violation: scenario nests arrays and objects more than "
        f"{serialize.MAX_NESTING} levels deep\n"
    )
    assert "Traceback" not in err


def test_tiny_hbar_exceeds_phase_bound(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["system"]["hbar"] = 1e-300
    code, out = qcorr_run(tmp_path, sc, "tiny-hbar")
    assert code == 3
    assert not out.exists()
    assert "phase bound" in capsys.readouterr().err

    # a small but workable hbar keeps its phases below the bound
    sc["system"]["hbar"] = 1e-3
    code, _ = qcorr_run(tmp_path, sc, "small-hbar")
    assert code == 0
    capsys.readouterr()


def test_iterate_task_matches_cumulant_solution(tmp_path, capsys):
    code, out = qcorr_run(tmp_path, ITERATE_SCENARIO, "iterate")
    assert code == 0
    assert set(os.listdir(out)) == {
        "manifest.json", "scenario.json", "iterate.json", "iterate.csv"
    }
    result = json.loads((out / "iterate.json").read_text())
    assert result["quadrature"] == {"order": 2, "nodes_per_dim": 6}

    sc = load_scenario(ITERATE_SCENARIO)
    f0 = marginal_state_from_density(sc.initial)
    records = result["records"]
    assert [(r["s"], r["t"]) for r in records] == [(2, 0.5), (3, 0.5)]
    for rec in records:
        s, t = rec["s"], rec["t"]
        matrix = decode_raw_matrix(rec["matrix"])
        got = ManyBodyOperator(ParticleSet.range1(s), 2, matrix)
        assert trace_norm(got - solve_bbgky_cumulant(sc.spec, f0, s, t)) < 1e-10
    capsys.readouterr()


@pytest.mark.parametrize("d", [2, 3])
def test_bbgky_task_matches_cumulant_solution(tmp_path, capsys, d):
    # the task reduces the run's evolved density; on exchange-symmetric data
    # the cumulant solution formula is a second route to the same F_s(t)
    doc = {
        "system": {"preset": "random_hermitian", "seed": 40 + d, "orders": [2, 3],
                   "dim_single": d},
        "initial": {"preset": {"preset": "random_correlation", "seed": 50 + d,
                               "symmetric": True}},
        "times": [0.4, -0.3, 0.0],
        "n_max": 4,
        "s_values": [3, 1, 2],
        "tasks": ["bbgky"],
    }
    code, out = qcorr_run(tmp_path, doc, "bbgky")
    assert code == 0
    capsys.readouterr()
    records = json.loads((out / "bbgky.json").read_text())["records"]
    assert [(r["s"], r["t"]) for r in records] == [
        (s, t) for s in doc["s_values"] for t in doc["times"]
    ]
    sc = load_scenario(doc)
    f0 = marginal_state_from_density(sc.density)
    for rec in records:
        s, t = rec["s"], rec["t"]
        got = decode_raw_matrix(rec["matrix"])
        want = solve_bbgky_cumulant(sc.spec, f0, s, t)
        err = trace_norm(ManyBodyOperator(ParticleSet.range1(s), d, got) - want)
        assert err <= 1e-12 * trace_norm(want)
        if t == 0.0:
            # F_s(0) is the reduced initial density, to the bit
            want_bits = f0.seq.components[s].matrix.view(np.uint64)
            assert np.array_equal(got.view(np.uint64), want_bits)


def test_quadrature_rule_may_be_left_out_and_names_gauss_alone(tmp_path, capsys):
    # Gauss-Legendre is the one rule: a scenario may name it or leave the
    # field out, with the same results, and any other name is refused
    quadrature = {"order": 2, "nodes_per_dim": 6}
    code, plain = qcorr_run(tmp_path, dict(ITERATE_SCENARIO, quadrature=quadrature), "plain")
    assert code == 0
    code, named = qcorr_run(tmp_path, ITERATE_SCENARIO, "named")
    assert code == 0
    for name in ("iterate.json", "iterate.csv"):
        assert (plain / name).read_bytes() == (named / name).read_bytes()
    capsys.readouterr()

    trapezoid = dict(quadrature, rule="nested-trapezoid")
    code, out = qcorr_run(tmp_path, dict(ITERATE_SCENARIO, quadrature=trapezoid), "trapezoid")
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("schema violation: ") and err.count("\n") == 1
    assert "quadrature/rule" in err


def test_iterate_records_are_ordered_by_s_then_t(tmp_path, capsys):
    # one solve per time serves every s; the records still list s first, in
    # the scenario's order, then t, each equal to a solve for that s alone
    sc_obj = dict(ITERATE_SCENARIO, times=[0.5, 0.2], s_values=[3, 2])
    code, out = qcorr_run(tmp_path, sc_obj, "iterate-order")
    assert code == 0
    records = json.loads((out / "iterate.json").read_text())["records"]
    assert [(r["s"], r["t"]) for r in records] == [(3, 0.5), (3, 0.2), (2, 0.5), (2, 0.2)]
    sc = load_scenario(sc_obj)
    f0 = marginal_state_from_density(sc.initial)
    for rec in records:
        s, t = rec["s"], rec["t"]
        alone = solve_bbgky_iteration(sc.spec, f0, [s], t, sc.quadrature)[s]
        assert np.array_equal(decode_raw_matrix(rec["matrix"]), alone.matrix)
    capsys.readouterr()


# the non-symmetric preset at n_max = 3: the s = 1 cumulant solution misses
# the reduced evolved density by about 1.2e-2, the s = 2 one by round-off
ASYMMETRIC_SCENARIO = dict(
    BASE_SCENARIO,
    initial={"preset": dict(BASE_SCENARIO["initial"]["preset"], symmetric=False)},
    times=[0.3],
    n_max=3,
)
# its refusal for bbgky and iterate at s = 1
_ASYMMETRIC_ERR = (
    "invalid request: density component 3 is not exchange-symmetric: "
    "max|m - Sym m| = 7.960e-01 max|m| exceeds 5e-11 max|m|\n"
)


def test_default_correlation_preset_runs_bbgky_and_iterate(tmp_path, capsys):
    # the preset draws exchange-symmetric data unless told otherwise
    sc = dict(BASE_SCENARIO, times=[0.3], n_max=3, s_values=[1], tasks=["bbgky", "iterate"])
    assert "symmetric" not in sc["initial"]["preset"]
    code, out = qcorr_run(tmp_path, sc, "default-preset")
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "bbgky.csv", "bbgky.json", "iterate.csv", "iterate.json", "manifest.json",
        "scenario.json",
    ]
    capsys.readouterr()


@pytest.mark.parametrize("task", ["bbgky", "iterate"])
def test_non_symmetric_density_exits_2_without_output(tmp_path, capsys, no_task_runs, task):
    sc = dict(ASYMMETRIC_SCENARIO, s_values=[1], tasks=[task])
    code, out = qcorr_run(tmp_path, sc, f"asym-{task}")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == _ASYMMETRIC_ERR


def test_non_symmetric_density_passes_when_every_checked_s_is_exact(tmp_path, capsys):
    sc = dict(ASYMMETRIC_SCENARIO, s_values=[2], tasks=["bbgky"])
    code, out = qcorr_run(tmp_path, sc, "asym-s2")
    assert code == 0
    loaded = load_scenario(sc)
    dt = DensityState(evolve_density_sequence(loaded.spec, loaded.density.seq, 0.3))
    rec = json.loads((out / "bbgky.json").read_text())["records"][0]
    got = ManyBodyOperator(ParticleSet.range1(2), 2, decode_raw_matrix(rec["matrix"]))
    assert trace_norm(got - reduce_from_density(dt, 2)) < 1e-12
    capsys.readouterr()


def test_wrong_task_for_initial_data_leaves_no_output(tmp_path, capsys, no_task_runs):
    # the refusal of the non-symmetric data for bbgky or iterate comes
    # before any task runs, so the tasks listed first compute nothing either
    for tasks in (["evolve", "bbgky"], ["evolve", "hierarchy", "bbgky"], ["evolve", "iterate"]):
        sc = dict(ASYMMETRIC_SCENARIO, s_values=[1], tasks=tasks)
        code, out = qcorr_run(tmp_path, sc, "-".join(tasks))
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == _ASYMMETRIC_ERR


# D_1 = -1/2 on d = 2 and D_2 = 0: the reduction scalar 1 + tr D_1 is 0
_ZERO = [0, 0]
VANISHING_DENSITY = {"density": {
    "dim_single": 2,
    "n_max": 2,
    "scalar0": [1, 0],
    "components": [[[[-0.5, 0], _ZERO], [_ZERO, [-0.5, 0]]], [[_ZERO] * 4] * 4],
}}


@pytest.mark.parametrize(
    "tasks",
    [["evolve", "observables"], ["evolve", "bbgky"], ["hierarchy", "iterate"]],
    ids="-".join,
)
def test_vanishing_normalization_is_refused_before_any_task(
    tmp_path, capsys, no_task_runs, tasks
):
    sc = dict(BASE_SCENARIO, initial=VANISHING_DENSITY, s_values=[1], tasks=tasks)
    code, out = qcorr_run(tmp_path, sc, "vanishing")
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "normalization failure: normalization scalar 0j vanishes\n"
    )


@st.composite
def _scenario_documents(draw):
    """Schema-valid scenarios at d <= 3, n_max <= 3: any tasks, times and
    s_values, each preset, and explicit density data whose reduction scalar
    1 + tr D_1 is 0."""
    d, n_max = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    seed = st.integers(0, 2**32)
    system = {"preset": "random_hermitian", "seed": draw(seed), "dim_single": d,
              "orders": draw(st.sampled_from([[2], [2, 3]]))}
    kind = draw(st.sampled_from(["random_correlation", "random_density", "explicit"]))
    if kind == "random_correlation":
        initial = {"preset": {"preset": kind, "seed": draw(seed),
                              "norms": draw(st.floats(0.05, 0.6)),
                              "traceless": draw(st.booleans()),
                              "symmetric": draw(st.booleans())}}
    elif kind == "random_density":
        initial = {"preset": {"preset": kind, "seed": draw(seed),
                              "trace_scale": draw(st.floats(0.1, 1.0))}}
    else:
        head = draw(st.lists(st.floats(-2, 2), min_size=d - 1, max_size=d - 1))
        diag = [*head, -1 - sum(head)]
        d1 = [[[x if i == j else 0, 0] for j in range(d)] for i, x in enumerate(diag)]
        initial = {"density": {"dim_single": d, "n_max": 1, "scalar0": [1, 0],
                               "components": [d1]}}
    doc = {
        "system": system,
        "initial": initial,
        "times": draw(st.lists(st.floats(-1, 1), min_size=1, max_size=2)),
        "tasks": draw(st.lists(st.sampled_from(list(cli._TASK_FNS)), min_size=1)),
        "n_max": n_max,
        "quadrature": {"order": draw(st.integers(0, 2)), "nodes_per_dim": 4},
    }
    if draw(st.booleans()):
        doc["s_values"] = draw(st.lists(st.integers(1, n_max + 1), min_size=1, unique=True))
    return doc


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_scenario_documents())
def test_every_input_only_refusal_comes_before_the_first_task(doc):
    ran = []

    def recorded(task, fn):
        return lambda sc: ran.append(task) or fn(sc)

    tasks = {task: recorded(task, fn) for task, fn in cli._TASK_FNS.items()}
    err = io.StringIO()
    with (
        pytest.MonkeyPatch.context() as mp,
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        mp.setattr(cli, "_TASK_FNS", tasks)
        path, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = main(["run", "--scenario", path, "--out", out])
        if code == 0:
            with open(os.path.join(out, "manifest.json")) as fh:
                listed = json.load(fh)["files"]
    assert code in (0, 1, 2, 3)
    if code in (2, 3) or err.getvalue().startswith("normalization failure:"):
        assert ran == []
    if code == 0:
        assert {f"{task}.json" for task in doc["tasks"]} <= set(listed)


def test_short_norms_list_exits_2_without_traceback(tmp_path):
    # a list of one norm per component, n_max of them: a short list and a
    # long one are both refused, and no entry is dropped in silence
    for norms in ([0.5], [0.5] * 6):
        sc = json.loads(json.dumps(BASE_SCENARIO))
        sc["n_max"] = 3
        sc["initial"]["preset"]["norms"] = norms
        path = _write_scenario(tmp_path, sc)
        out = tmp_path / f"norms-{len(norms)}"
        cmd = [sys.executable, "-m", "qcorr.cli", "run", "--scenario", path]
        proc = subprocess.run(cmd + ["--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"norms has {len(norms)} entries but n_max is 3" in proc.stderr
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
            "components": [wire(encode_raw_matrix(g1.matrix)), None, None],
        }
    }
    sc = dict(BASE_SCENARIO, initial=initial, times=[0.0, 0.3], n_max=3)
    sc["tasks"] = ["hierarchy"]
    code, out = qcorr_run(tmp_path, sc, "chaos-data")
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


def test_hierarchy_on_density_data_inverts_the_run_flow(tmp_path, capsys):
    # at t = 0 the state is Ln(D0) itself; later ones are the library's
    # solution from Ln(D0), up to the round-off of Ln(Exp(Ln(D0)))
    d0 = random_density_state(61, 2, 3, trace_scale=0.8)
    initial = {"density": wire(encode_sequence(d0.seq, kind="density"))}
    sc = dict(BASE_SCENARIO, initial=initial, times=[0.0, 0.4], n_max=3, tasks=["hierarchy"])
    code, out = qcorr_run(tmp_path, sc, "density-hierarchy")
    assert code == 0
    first, later = json.loads((out / "hierarchy.json").read_text())["states"]
    g0 = cluster_invert(d0)
    assert first == wire(encode_sequence(g0.seq, kind="correlation"))
    want = solve_hierarchy(load_scenario(sc).spec, g0, 0.4).seq
    for n, rows in enumerate(later["components"], start=1):
        w = want.components[n].matrix
        assert np.linalg.norm(decode_raw_matrix(rows) - w) <= 1e-13 * np.linalg.norm(w)
    capsys.readouterr()


def test_every_scenario_field_is_read():
    # load_scenario hands a task only what some task, or the flow, reads
    tree = ast.parse(inspect.getsource(cli))
    scenario = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scenario"
    )
    fields = {n.target.id for n in scenario.body if isinstance(n, ast.AnnAssign)}
    read = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in ("sc", "self")
        and isinstance(n.ctx, ast.Load)
    }
    assert "density" in fields
    assert fields <= read, f"Scenario fields that no one reads: {sorted(fields - read)}"


def test_the_reduced_tasks_divide_by_the_pre_flight_scalar(tmp_path, monkeypatch, capsys):
    # load_scenario sums and judges the reduction scalar; bbgky and
    # observables divide by Scenario.z and sum it no more
    from qcorr.star_algebra import annihilation_scalar

    inside, calls = [], []

    def counted(f):
        calls.append(inside[-1] if inside else None)
        return annihilation_scalar(f)

    for name, module in list(sys.modules.items()):
        if name.startswith("qcorr.") and vars(module).get("annihilation_scalar") is (
            annihilation_scalar
        ):
            monkeypatch.setattr(module, "annihilation_scalar", counted)

    def within(task, fn):
        def run(sc):
            inside.append(task)
            try:
                return fn(sc)
            finally:
                inside.pop()

        return run

    for task in ("bbgky", "observables"):
        monkeypatch.setitem(cli._TASK_FNS, task, within(task, cli._TASK_FNS[task]))
    code, _ = qcorr_run(tmp_path, dict(BASE_SCENARIO, tasks=list(cli._TASK_FNS)), "five")
    assert code == 0
    assert None in calls  # the pre-flight's sum, so the patch is in place
    assert [c for c in calls if c is not None] == []
    capsys.readouterr()


@pytest.mark.parametrize(
    "tasks, kept",
    [
        (["hierarchy", "bbgky"], True),
        (["evolve", "hierarchy", "bbgky"], True),
        (["evolve", "bbgky"], True),
        (["hierarchy"], False),
        (["bbgky", "observables"], False),
    ],
)
def test_each_d_t_is_computed_once_and_kept_only_when_two_tasks_read_it(
    monkeypatch, tasks, kept
):
    # two or more of evolve, hierarchy and bbgky share one flow.at a time;
    # a lone reader keeps no D(t) for the run
    from qcorr.evolution import DensityFlow

    at, calls = DensityFlow.at, []
    monkeypatch.setattr(DensityFlow, "at", lambda flow, t: calls.append(t) or at(flow, t))
    sc = load_scenario(dict(BASE_SCENARIO, tasks=tasks))
    cli.run_scenario(sc)
    assert sorted(calls) == sorted(sc.times)
    assert ("states" in vars(sc)) is kept


def test_observables_are_density_moments_on_non_symmetric_data(tmp_path, capsys):
    a = random_hermitian(rng_from_seed(41), 2)
    sc = dict(ASYMMETRIC_SCENARIO, times=[0.0, 0.3], tasks=["observables"])
    sc["observable"] = wire(encode_raw_matrix(a))
    code, out = qcorr_run(tmp_path, sc, "asym-observables")
    assert code == 0
    records = json.loads((out / "observables.json").read_text())["records"]
    loaded = load_scenario(sc)
    d0 = cluster_expand(loaded.initial)
    for t, rec in zip(sc["times"], records, strict=True):
        dt = DensityState(evolve_density_sequence(loaded.spec, d0.seq, t))
        m1, m2 = naive_moments(dt.seq, a)
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
    code, out = qcorr_run(tmp_path, sc, "one-particle-observables")
    assert code == 0
    for rec in json.loads((out / "observables.json").read_text())["records"]:
        p = rec["observable_mean"]
        assert abs(rec["observable_dispersion"] - p * (1 - p)) < 1e-15
    capsys.readouterr()


def test_a_repeated_s_value_exits_2(tmp_path, capsys):
    # each s would be computed and written twice, as records of one time
    sc = dict(BASE_SCENARIO, s_values=[1, 2, 1], tasks=["bbgky"])
    code, out = qcorr_run(tmp_path, sc, "repeated-s")
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == "schema violation: s_values repeats s=1\n"


# BASE_SCENARIO by hand: CRLF line ends, tabs, and keys out of order
_HANDWRITTEN = (
    b'{\r\n\t"tasks": ["observables", "evolve",\t"bbgky"],\r\n'
    b'\t"times": [0.1, 0.3], "s_values": [2, 1],\r\n'
    b'\t"initial": {"preset": {"norms": 0.3, "seed": 12, "preset": "random_correlation"}},\r\n'
    b'\t"n_max": 2,\r\n'
    b'\t"system": {"dim_single": 2, "seed": 11, "orders": [2], "preset": "random_hermitian"}\r\n'
    b'}\r\n'
)


@pytest.mark.parametrize("seed", [None, 99], ids=["no-seed", "seed-99"])
def test_scenario_json_is_the_file_as_read_and_reruns_the_run(tmp_path, capsys, seed):
    path = tmp_path / "handwritten.json"
    path.write_bytes(_HANDWRITTEN)
    extra = [] if seed is None else ["--seed", str(seed)]
    out, again = tmp_path / "out", tmp_path / "again"
    assert main(["run", "--scenario", str(path), "--out", str(out), *extra]) == 0
    assert (out / "scenario.json").read_bytes() == _HANDWRITTEN
    # the record reruns the run: the bytes it read, and the seed it took
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == seed
    rerun = [] if manifest["seed"] is None else ["--seed", str(manifest["seed"])]
    argv = ["run", "--scenario", str(out / "scenario.json"), "--out", str(again), *rerun]
    assert main(argv) == 0
    assert _read_dir(again) == _read_dir(out)
    capsys.readouterr()


@pytest.mark.parametrize("out", [None], ids=["no-flag"])
def test_run_writes_into_qcorr_out_without_a_directory(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    argv = ["run", "--scenario", path] + ([] if out is None else ["--out", out])
    assert main(argv) == 0
    assert capsys.readouterr().out == "wrote 7 files to qcorr-out\n"
    assert (tmp_path / "qcorr-out" / "manifest.json").exists()


def test_an_empty_out_exits_2_before_any_task_runs(tmp_path, monkeypatch, capsys, no_task_runs):
    # an unset shell variable, --out "$DIR", names no directory: the run is
    # refused rather than written into the default
    monkeypatch.chdir(tmp_path)
    path = _write_scenario(tmp_path, BASE_SCENARIO)
    assert main(["run", "--scenario", path, "--out", ""]) == 2
    assert capsys.readouterr().err == "cannot write output : No such file or directory\n"
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.parametrize("task", list(cli._TASK_FNS))
def test_every_task_writes_its_json_and_tables_their_csv(tmp_path, task):
    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, tasks=[task]), task)
    assert code == 0
    twin = [f"{task}.csv"] if task in ("bbgky", "iterate", "observables") else []
    files = sorted([f"{task}.json", *twin])
    assert json.loads((out / "manifest.json").read_text())["files"] == files
    assert sorted(os.listdir(out)) == sorted([*files, "manifest.json", "scenario.json"])


@pytest.mark.parametrize(
    "output", [{}, {"path": "elsewhere"}, {"format": "csv"}, {"format": "both"}]
)
def test_a_scenario_output_object_exits_2_and_writes_nothing(
    tmp_path, monkeypatch, capsys, output
):
    # --out alone names the directory, and every run writes every file
    monkeypatch.chdir(tmp_path)
    code, out = qcorr_run(tmp_path, dict(BASE_SCENARIO, output=output), "out")
    assert code == 2
    assert capsys.readouterr().err == (
        "schema violation: scenario at '': property 'output' is not allowed\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_csv_floats_roundtrip(tmp_path):
    _, out = qcorr_run(tmp_path, BASE_SCENARIO, "csv-check")
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


def test_verify_and_schema_print_indented_json(capsys):
    # the small outputs people read keep the indented form
    assert main(["schema", "--print"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(ALL_SCHEMAS, sort_keys=True, indent=2) + "\n"
    assert main(["verify", "--suite", "combinatorics"]) == 0
    out = capsys.readouterr().out
    assert out.startswith('{\n  "checks": [\n')
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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
