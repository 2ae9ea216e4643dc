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
from qcorr.operators import ManyBodyOperator
from qcorr.presets import random_density_state, random_system

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


def test_embedded_group_conj_receives_operators_on_full(monkeypatch):
    # the tracer's hook reads x.dim_single from the fifth argument, so the
    # series must hand it a ManyBodyOperator on the labels it names
    calls = []
    original = bbgky._embedded_group_conj

    def recording(spec, full, sub_n, tau, x):
        calls.append((full, x))
        return original(spec, full, sub_n, tau, x)

    monkeypatch.setattr(bbgky, "_embedded_group_conj", recording)
    spec = random_system(330, dim_single=2, orders=(2,))
    f0 = bbgky.marginal_state_from_density(random_density_state(331, 2, 4))
    bbgky.solve_bbgky_iteration(spec, f0, [1], 0.3, bbgky.QuadratureSpec(3, 4))
    assert calls
    for full, x in calls:
        assert isinstance(x, ManyBodyOperator)
        assert x.labels == full


def test_traced_tasks_are_cli_tasks():
    assert set(layers.TASKS) <= set(cli._TASK_FNS)
