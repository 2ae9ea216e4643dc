"""The derivative rule of the generator checks and the checks' power.

Every suite runs through `qcorr verify` in
test_cli.py::test_every_verify_suite_passes."""

import pytest

from qcorr import evolution
from qcorr.verify import derivative, run_suite


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
