"""Smoke test of the benchmark itself: all workloads at d = 2, in seconds.

    python3 -m pytest -q bench/test_smoke.py

It runs the real harness (fresh `qcorr run` processes, output checks,
traced runs) with the single-particle dimension lowered from 4 to 2, and
checks the result lines against BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_all_workloads_at_d2(trace):
    got = _run("--workload", "all", "--seed", "7", "--seconds", "0",
               "--trace", trace, "--dim", "2")
    assert got.returncode == 0, got.stderr
    results = json.loads(got.stdout.strip().splitlines()[-1])
    assert list(results) == list(WORKLOADS)
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    for name, res in results.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0, (name, got.stderr)
        assert res["attempted"] >= 2
        assert [m["name"] for m in wanted] == list(res["metrics"])
        for m in wanted:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        for res in results.values():
            assert all(m["value"] > 0 for m in res["metrics"].values())


def test_benchmark_json_lists_every_layer_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.UNITS.items())


def test_checks_catch_a_corrupted_record(tmp_path):
    from checks import check_outputs
    from qcorr.cli import main
    from workloads import build

    doc = build("cumulant-d4", 3, dim=2)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert check_outputs(doc, str(out)) == []
    res = json.loads((out / "bbgky.json").read_text())
    res["records"][0]["matrix"][0][0][0] += 1e-6
    (out / "bbgky.json").write_text(json.dumps(res))
    assert any("bbgky" in f for f in check_outputs(doc, str(out)))


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    got = _run("--workload", "io-d4", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout


def test_wrong_outputs_count_as_failed(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "_work")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    evolution = tmp_path / "src" / "qcorr" / "evolution.py"
    text = evolution.read_text()
    assert "-1j * t / ug.hbar" in text
    evolution.write_text(text.replace("-1j * t / ug.hbar", "-1j * t * (1 + 1e-6) / ug.hbar"))
    got = _run("--workload", "io-d4", "--seed", "7", "--seconds", "0", "--trace", "0",
               "--dim", "2", cwd=tmp_path)
    assert got.returncode == 0, got.stderr
    res = json.loads(got.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] == res["attempted"] >= 3
    assert "check failed: evolve" in got.stderr
