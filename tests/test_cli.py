"""Command-line contract: exit codes, file outputs, determinism."""

import json
import os
import shutil
import subprocess
import sys

from qcorr.cli import main
from qcorr.serialize import REPORT_SCHEMA, validate

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
    assert manifest["exit_code"] == 0
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

    pinned = json.loads(json.dumps(BASE_SCENARIO))
    pinned["system"]["seed"] = 99
    pinned["initial"]["preset"]["seed"] = 99
    _, direct = _run(tmp_path, pinned, "pinned")
    assert (direct / "evolve.json").read_bytes() == (
        overridden / "evolve.json"
    ).read_bytes()


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


def test_wrong_task_for_initial_data_leaves_no_output(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["tasks"] = ["evolve", "chaos"]
    code, out = _run(tmp_path, sc, "mismatched")
    assert code == 2
    assert not out.exists()
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


def test_verify_task_writes_report(tmp_path):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["tasks"] = ["verify:combinatorics", "verify:group-law"]
    code, out = _run(tmp_path, sc, "with-verify")
    assert code == 0
    for suite in ("combinatorics", "group-law"):
        report = json.loads((out / f"verify-{suite}.json").read_text())
        validate(report, REPORT_SCHEMA, "report")
        assert report["suite"] == suite
        assert report["passed"] is True
        assert all(c["pass"] for c in report["checks"])
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
    assert report["max_headroom"] is not None


def test_unknown_verify_suite_rejected(tmp_path, capsys):
    sc = json.loads(json.dumps(BASE_SCENARIO))
    sc["tasks"] = ["verify:everything"]
    code, out = _run(tmp_path, sc, "bad-suite")
    assert code == 2
    assert not out.exists()
    assert "unknown suite" in capsys.readouterr().err


def test_verify_command_passes(capsys):
    code = main(["verify", "--suite", "combinatorics"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["passed"] is True


def test_verify_command_unknown_suite(capsys):
    code = main(["verify", "--suite", "nope"])
    assert code == 2
    assert "valid:" in capsys.readouterr().err


def test_tiny_tolerance_scale_fails(capsys):
    # group-law residuals are tiny but nonzero, so scaling pushes them over
    code = main(["verify", "--suite", "group-law", "--tol-scale", "1e-30"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["passed"] is False


def test_schema_command_prints_registry(capsys):
    assert main(["schema", "--print"]) == 0
    schemas = json.loads(capsys.readouterr().out)
    assert "scenario" in schemas
    assert "operator" in schemas


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
