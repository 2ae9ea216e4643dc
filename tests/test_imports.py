"""Each module imports on its own: the package binds only `__version__`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# imports one module in a fresh interpreter, then prints every loaded module
_PROBE = (
    "import importlib, sys\n"
    "importlib.import_module(sys.argv[1])\n"
    "print(' '.join(sorted(sys.modules)))\n"
)


def _loaded(module: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, module],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


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
    # orjson is imported when the first matrix is written, after setup
    assert "orjson" not in loaded
    # runs are sequential: no thread pool is imported
    assert "concurrent.futures" not in loaded
