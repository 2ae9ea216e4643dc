"""The README's library quick start, minimal scenario and command lines run
as written."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from qcorr import cli
from qcorr.cli import SCENARIO_SCHEMA, main
from qcorr.operators import TAU_HERM

ROOT = Path(__file__).resolve().parent.parent


def _blocks(lang: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def _block(lang: str) -> str:
    (block,) = _blocks(lang)
    return block


def test_quick_start_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", _block("python")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the snippet prints the solver-oracle residual it says is ~1e-16
    assert float(proc.stdout) < 1e-12


def test_minimal_scenario_runs(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(_block("json"))
    out = tmp_path / "results"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


# runs the CLI on argv, then lists every loaded module on stderr
_PROBE = (
    "import sys\n"
    "from qcorr.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_minimal_scenario_never_imports_verify(tmp_path):
    # suites run through `qcorr verify` only, so a scenario run loads none
    path = tmp_path / "scenario.json"
    path.write_text(_block("json"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["run", "--scenario", str(path), "--out", str(tmp_path / "results")]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "qcorr.cli" in loaded
    assert "qcorr.verify" not in loaded


def test_one_task_list_and_no_dead_flag_in_the_readme():
    # every qcorr command line the README shows parses, optional flags included
    lines = [
        line.split()[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("qcorr ")
    ]
    assert {argv[0] for argv in lines} == {"run", "verify", "schema"}
    for argv in lines:
        argv = [word.strip("[]") for word in argv]
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"the README shows qcorr {' '.join(argv)}") from None


def _table(first_header: str) -> list[list[str]]:
    """The body rows of the README table whose first header cell is given,
    each cell stripped of its backticks."""
    lines = (ROOT / "README.md").read_text().splitlines()
    header = f"| {first_header} |"
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
    return rows


def test_readme_preset_defaults_are_the_code_defaults():
    # one row per field of every preset, in the table cli reads them from
    readme = {}
    for preset, field, default, _ in _table("preset"):
        readme.setdefault(preset, {})[field] = json.loads(default)
    assert readme == {
        name: {field: default for field, (default, _) in fields.items()}
        for name, (_, fields) in cli._PRESETS.items()
    }


def test_readme_rule_tolerances_are_the_code_tolerances():
    # the Hermiticity rule, ||m - m^dagger||_F <= TAU_HERM ||m||_F, and the
    # exchange-symmetry rule, max|m - Sym m| <= (TAU_HERM / 2) max|m|
    text = (ROOT / "README.md").read_text()
    herm = re.findall(r"‖(\w) − \1†‖_F\s+[≤>]\s+(\S+)\s+‖\1‖_F", text)
    sym = re.findall(r"max\|(\w+) − Sym \1\|\s+≤\s+(\S+)\s+·\s+max\|\1\|", text)
    assert len(herm) >= 3 and sym
    assert {float(tol) for _, tol in herm} == {TAU_HERM}
    assert {float(tol) for _, tol in sym} == {TAU_HERM / 2}


def test_readme_names_every_optional_scenario_key():
    # "..., and optionally `a`, `b` and `c`." names every optional key, and
    # only those, so a key the schema drops or adds shows here
    text = " ".join((ROOT / "README.md").read_text().split())
    (sentence,) = re.findall(r"and optionally ((?:`\w+`(?:, | and )?)+)", text)
    named = re.findall(r"`(\w+)`", sentence)
    schema = SCENARIO_SCHEMA
    assert sorted(named) == sorted(set(schema["properties"]) - set(schema["required"]))
