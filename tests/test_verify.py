"""The derivative rule of the generator checks, the checks' power, and the
suites that CI runs."""

import re
from pathlib import Path

import pytest

from qcorr import evolution
from qcorr.verify import SUITE_NAMES, derivative, run_suite

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("k", range(1, 9))
def test_derivative_is_exact_through_degree_eight(k):
    # exactness on t, t^3, t^5 and t^7 fixes all four weights
    assert abs(derivative(lambda t: t**k, 0.4) - k * 0.4 ** (k - 1)) <= 1e-12


def test_generator_checks_see_a_phase_fault_of_one_part_in_a_billion(monkeypatch):
    # every propagator, flow and cumulant of the suite takes its phases here
    orig = evolution.phases
    monkeypatch.setattr(evolution, "phases", lambda ug, t: orig(ug, t * (1 + 1e-9)))
    report = run_suite("generators")
    assert [c["pass"] for c in report["checks"]] == [False] * 5


def test_the_ci_workflow_runs_every_suite():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    (names,) = re.findall(r"for suite in ([^;]*); do", text)
    assert names.replace("\\", " ").split() == list(SUITE_NAMES)
