"""Each module imports on its own: the package binds only `__version__`."""

import ast
import json
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import qcorr

ROOT = Path(__file__).resolve().parent.parent

# imports one module in a fresh interpreter, then prints every loaded module
_PROBE = (
    "import importlib, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(' '.join(sorted(sys.modules)))\n"
)


def _probe_modules(probe: str, *args: str) -> set[str]:
    """The modules loaded when probe has run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _loaded(module: str) -> set[str]:
    return _probe_modules(_PROBE, module)


def test_pyproject_states_the_package_version():
    # a release bumps both, and the manifest of every run records the second;
    # the [project] table is read without tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r'^version = "(.*)"$', project, re.M) == [qcorr.__version__]


def test_package_imports_nothing():
    loaded = _loaded("qcorr")
    assert {m for m in loaded if m.startswith("qcorr")} == {"qcorr"}
    assert "numpy" not in loaded


def test_partitions_loads_only_itself_and_errors():
    loaded = _loaded("qcorr.partitions")
    assert {m for m in loaded if m.startswith("qcorr")} == {
        "qcorr",
        "qcorr.errors",
        "qcorr.partitions",
    }
    assert "numpy" not in loaded


def test_serialize_loads_only_itself_and_errors():
    # the JSON layer knows no operator, sequence or system: cli decodes those
    loaded = _loaded("qcorr.serialize")
    assert {m for m in loaded if m.startswith("qcorr")} == {
        "qcorr",
        "qcorr.errors",
        "qcorr.serialize",
    }


@pytest.mark.parametrize(
    "module", ["qcorr.operators", "qcorr.serialize", "qcorr.presets"]
)
def test_library_modules_load_no_front_end(module):
    loaded = _loaded(module)
    assert module in loaded
    assert not loaded & {"qcorr.verify", "qcorr.cli", "jsonschema", "orjson"}


def test_cli_loads_every_module_the_benchmark_traces():
    # bench/layers.py looks each SPANNED module up in sys.modules once
    # `from qcorr import cli` has run
    tree = ast.parse((ROOT / "bench" / "layers.py").read_text())
    (spanned,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["SPANNED"]
    ]
    loaded = _loaded("qcorr.cli")
    assert {f"qcorr.{module}" for module, _ in spanned} <= loaded
    assert "qcorr.verify" not in loaded
    # orjson is imported when `qcorr run` reads a scenario
    assert "orjson" not in loaded
    # runs are sequential: no thread pool is imported
    assert "concurrent.futures" not in loaded


# runs one scenario in a fresh interpreter, then prints every loaded module
_RUN_PROBE = (
    "import sys\n"
    "from qcorr.cli import main\n"
    "assert main(['run', '--scenario', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
    "print(' '.join(sorted(sys.modules)))\n"
)


_SCENARIO = {
    "system": {"preset": "random_hermitian", "seed": 11},
    "initial": {"preset": {"preset": "random_density", "seed": 12}},
    "times": [0.1],
    "n_max": 2,
    "tasks": ["evolve"],
}


def test_a_valid_run_loads_orjson_but_not_jsonschema(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_SCENARIO))
    loaded = _probe_modules(_RUN_PROBE, str(scenario), str(tmp_path / "out"))
    assert "orjson" in loaded
    assert "jsonschema" not in loaded
    assert "qcorr.verify" not in loaded


# runs the CLI on argv in a fresh interpreter, then prints every loaded
# module on stderr's last line and exits with the CLI's code
_MAIN_PROBE = (
    "import sys\n"
    "from qcorr.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _distributions(modules) -> set[str]:
    """The installed distributions that provide modules."""
    provided = packages_distributions()
    return {d for m in modules for d in provided.get(m.split(".")[0], ())}


def test_every_command_loads_only_the_runtime_dependencies(tmp_path):
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    runtime = set(re.findall(r'"([A-Za-z0-9_]+)', block))
    assert runtime == {"numpy", "orjson"}

    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(_SCENARIO))
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps(dict(_SCENARIO, tasks=["simulate"])))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    loaded = set()
    for argv, code in [
        (["run", "--scenario", str(valid), "--out", str(tmp_path / "a")], 0),
        (["run", "--scenario", str(refused), "--out", str(tmp_path / "b")], 2),
        (["schema", "--print"], 0),
        (["verify", "--suite", "combinatorics"], 0),
    ]:
        proc = subprocess.run(
            [sys.executable, "-c", _MAIN_PROBE, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        loaded |= _distributions(proc.stderr.splitlines()[-1].split())
    # site hooks may load packages before any qcorr code runs
    bare = _distributions(_probe_modules("import sys; print(*sys.modules)"))
    assert loaded - bare - {"qcorr"} == runtime


def _unused_imports(path: Path) -> list[str]:
    """The names that path's module-level imports bind and no name in it
    reads; an import whose line holds `# noqa` binds none."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("directory", ["src/qcorr", "tests", "demos"])
def test_no_module_level_import_goes_unused(directory):
    paths = sorted((ROOT / directory).rglob("*.py"))
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []
