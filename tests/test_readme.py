"""The README's library quick start, minimal scenario and command lines run
as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

from qcorr import cli, serialize
from qcorr.cli import main

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
    # the schema's task pattern and the runner's task table name the same tasks
    alternatives = re.fullmatch(r"\^\((.*)\)\$", serialize._TASK_PATTERN).group(1)
    assert alternatives.split("|") == list(cli._TASK_FNS)

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
