"""The names the benchmark's layer tracer wraps still exist in qcorr.

`bench/layers.py` wraps `qcorr` functions by name when a benchmark runs
with `--trace 1`; a renamed or deleted function breaks that run only, so
the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qcorr import bbgky, cli

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load_layers()


@pytest.mark.parametrize(
    "modname,fname", layers.SPANNED, ids=[f"{m}.{f}" for m, f in layers.SPANNED]
)
def test_spanned_function_resolves(modname, fname):
    module = importlib.import_module(f"qcorr.{modname}")
    assert callable(getattr(module, fname, None)), f"qcorr.{modname}.{fname}"


def test_embedded_group_conj_exists():
    assert callable(getattr(bbgky, "_embedded_group_conj", None))


def test_traced_tasks_are_cli_tasks():
    assert set(layers.TASKS) <= set(cli._TASK_FNS)
