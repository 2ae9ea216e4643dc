"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single line
    criterion NN <name>: PASS|FAIL (worst residual, tolerance)
so a plain `pytest -v tests/test_acceptance.py` reads as a checklist.  The
tolerances here are the published contract; do not loosen them.
"""

import time
from math import factorial

import numpy as np

from qcorr.bbgky import (
    MarginalState,
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    marginal_state_from_density,
    average_particle_number,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from qcorr.evolution import (
    evolve_density_sequence,
    group_apply,
    make_unitary_group,
)
from qcorr.hamiltonian import build_hamiltonian
from qcorr.hierarchy import (
    DensityState,
    cluster_expand,
    solve_hierarchy,
    solve_via_density_oracle,
)
from qcorr.operators import ManyBodyOperator, trace_norm
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.presets import (
    chaos_one_particle,
    free_system,
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_sequence,
    random_system,
    rng_from_seed,
)
from qcorr.star_algebra import OperatorSequence, star_exp, star_ln, star_product
from qcorr.verify import (
    chaos_data,
    cluster_interaction_apply,
    correlation_chaos_expansion,
    correlation_from_g,
    correlation_from_marginals,
    cumulant_generator_fd,
    cumulant_vanishes_free,
    liouvillian_apply,
    literal_cumulant_solution,
    partition_alternating_sum,
    product_reduction_residual,
    recover_group_from_cumulants,
    reduce_from_correlations,
    scattering_generator_expected,
    scattering_operator_apply,
    seq_add,
    seq_residual,
    shift_map,
    solve_chaos,
    solve_chaos_scattering_form,
    verify_group_property,
    verify_growth_bound,
    verify_lemma2,
    verify_lemma3,
)


def _report(number: int, name: str, worst, tol) -> None:
    ok = worst <= tol
    print(
        f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
        f"(worst {worst:.3e}, tol {tol:.1e})"
    )
    assert ok, f"criterion {number:02d} {name}: worst {worst} exceeds {tol}"


def test_criterion_01_alternating_partition_sum():
    start = time.perf_counter()
    for n in range(1, 13):
        got = partition_alternating_sum(n)
        assert isinstance(got, int)
        assert got == (1 if n == 1 else 0)
    elapsed = time.perf_counter() - start
    print(f"criterion 01 alternating-partition-sum: PASS (exact, {elapsed:.2f}s)")
    assert elapsed < 5.0


def test_criterion_02_cumulant_inversion():
    start = time.perf_counter()
    spec = random_system(2001, dim_single=2, orders=(2, 3))
    worst = 0.0
    for n in (1, 2, 3):
        labels = ParticleSet.range1(n)
        f = random_correlation_state(2002 + n, 2, n, norms=1.0).seq.components[n]
        ug = make_unitary_group(spec, labels)
        for t in (0.3, 1.0):
            got = recover_group_from_cumulants(spec, -t, labels, f)
            want = group_apply(ug, -t, f)
            worst = max(worst, trace_norm(got - want))
    elapsed = time.perf_counter() - start
    _report(2, "cumulant-inversion", worst, 1e-9)
    assert elapsed < 10.0


def test_criterion_03_free_cumulants_vanish():
    fspec = free_system(2005, dim_single=2)
    g = random_correlation_state(2006, 2, 3, norms=1.0)
    worst = 0.0
    for n in (2, 3):
        for t in (0.5, 2.0):
            worst = max(
                worst, cumulant_vanishes_free(fspec, n, g.seq.components[n], t)
            )
    _report(3, "free-cumulants-vanish", worst, 1e-11)


def test_criterion_04_solution_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        spec = random_system(2010 + k, dim_single=2, orders=(2, 3))
        g0 = random_correlation_state(2100 + k, 2, 3, norms=0.5)
        for t in (0.1, 0.5, 1.0):
            a = solve_hierarchy(spec, g0, t)
            b = solve_via_density_oracle(spec, g0, t)
            worst = max(worst, seq_residual(a.seq, b.seq))
    elapsed = time.perf_counter() - start
    _report(4, "solution-oracle-equivalence", worst, 1e-9)
    assert elapsed < 60.0


def test_criterion_05_group_property():
    spec = random_system(2020, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(2021, 2, 3, norms=0.5)
    rng = rng_from_seed(2022)
    worst = 0.0
    for _ in range(10):
        t1, t2 = rng.uniform(-1.0, 1.0, size=2)
        worst = max(worst, verify_group_property(spec, g0, float(t1), float(t2)))
    assert seq_residual(solve_hierarchy(spec, g0, 0.0).seq, g0.seq) == 0.0
    _report(5, "group-property", worst, 1e-9)


def test_criterion_06_generators():
    spec = random_system(2030, dim_single=2, orders=(2, 3))
    h = 1e-4
    worst = 0.0

    # (a) propagator derivative at zero against the commutator generator
    labels = ParticleSet.range1(2)
    f2 = random_correlation_state(2031, 2, 2, norms=1.0).seq.components[2]
    ug = make_unitary_group(spec, labels)
    fd = (group_apply(ug, h, f2).matrix - group_apply(ug, -h, f2).matrix) / (2 * h)
    want = liouvillian_apply(build_hamiltonian(spec, labels), f2, spec.hbar)
    worst = max(
        worst, trace_norm(ManyBodyOperator(labels, 2, fd - want.matrix))
    )

    # (b) hierarchy right-hand side against a finite difference of the solver
    from qcorr.verify import nonlinear_generator

    g = random_correlation_state(2032, 2, 3, norms=0.5)
    gen = nonlinear_generator(spec, g)
    plus = solve_hierarchy(spec, g, h)
    minus = solve_hierarchy(spec, g, -h)
    for n in (1, 2, 3):
        fd_n = (plus.seq.components[n].matrix - minus.seq.components[n].matrix) / (
            2 * h
        )
        diff = ManyBodyOperator(ParticleSet.range1(n), 2, fd_n) - gen.seq.components[n]
        worst = max(worst, trace_norm(diff))

    # (c) cumulant derivative at zero against the block-interaction generator
    clusters = ClusterSet.of([(1,), (2, 3)])
    f3 = random_correlation_state(2033, 2, 3, norms=1.0).seq.components[3]
    got = cumulant_generator_fd(spec, clusters, f3)
    want3 = cluster_interaction_apply(clusters, f3, spec)
    worst = max(worst, trace_norm(got - want3))

    # (d) scattering conjugation derivative at zero
    sf = (
        scattering_operator_apply(spec, h, labels, f2).matrix
        - scattering_operator_apply(spec, -h, labels, f2).matrix
    ) / (2 * h)
    swant = scattering_generator_expected(spec, f2)
    worst = max(worst, trace_norm(ManyBodyOperator(labels, 2, sf - swant.matrix)))

    _report(6, "generators", worst, 5e-7)


def test_criterion_07_growth_bound():
    spec = random_system(2040, dim_single=2, orders=(2, 3))
    rng = rng_from_seed(2041)
    worst = -np.inf  # largest lhs - rhs; bound holds while negative
    for k in range(50):
        norm = float(rng.uniform(0.1, 1.5))
        g = random_correlation_state(2042 + k, 2, 4, norms=norm)
        for n in (1, 2, 3, 4):
            lhs, rhs = verify_growth_bound(spec, g, 1.0, n)
            worst = max(worst, lhs - rhs)
    _report(7, "growth-bound", worst, 0.0)


def test_criterion_08_sequence_algebra_lemmas():
    f = random_sequence(2050, 2, 3, norms=0.5)
    g = random_sequence(2051, 2, 3, norms=0.5)
    worst = 0.0

    # exponential and logarithm invert each other
    worst = max(worst, seq_residual(star_ln(star_exp(f, out_n_max=3), out_n_max=3), f))

    # the component shift acts as a derivation over the product
    prod = star_product(f, g, out_n_max=6)
    lhs = shift_map(prod, 1)
    rhs = seq_add(
        star_product(shift_map(f, 1), g, out_n_max=5),
        star_product(f, shift_map(g, 1), out_n_max=5),
    )
    worst = max(worst, seq_residual(lhs, rhs))

    # shifting an exponential multiplies it by the shifted argument
    e = star_exp(f, out_n_max=4)
    worst = max(
        worst,
        seq_residual(
            shift_map(e, 1), star_product(shift_map(f, 1), e, out_n_max=3)
        ),
    )

    # the reduction scalar is multiplicative over the product
    worst = max(worst, product_reduction_residual(f, g))

    # normalized reductions of shifted exponentials factorize
    weak = random_sequence(2052, 2, 3, norms=1e-3)
    for s in (1, 2):
        worst = max(worst, verify_lemma2(weak, s, depth=8))
    worst = max(worst, verify_lemma3(weak, depth=8))

    _report(8, "sequence-algebra-lemmas", worst, 1e-10)


def test_criterion_09_reduction_triangle():
    spec = random_system(2060, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(
        2061, 2, 3, norms=0.4, traceless=True, symmetric=True
    )
    d0 = cluster_expand(g0)
    f0 = marginal_state_from_density(d0)
    worst = 0.0
    for t in (0.2, 0.8):
        dt = DensityState(evolve_density_sequence(spec, d0.seq, t))
        gt = solve_hierarchy(spec, g0, t)
        for s in (1, 2):
            a = reduce_from_density(dt, s)
            b = solve_bbgky_cumulant(spec, f0, s, t)
            c = reduce_from_correlations(gt, s)
            worst = max(
                worst, trace_norm(a - b), trace_norm(b - c), trace_norm(a - c)
            )
    _report(9, "reduction-triangle", worst, 1e-9)

    dphys = random_density_state(2062, 2, 3, trace_scale=0.8)
    n0 = average_particle_number(marginal_state_from_density(dphys))
    drift = 0.0
    for t in (0.2, 0.8):
        dt = DensityState(evolve_density_sequence(spec, dphys.seq, t))
        nt = average_particle_number(marginal_state_from_density(dt))
        drift = max(drift, abs(nt - n0))
    _report(9, "mean-number-conservation", drift, 1e-10)


def test_criterion_10_iteration_series():
    spec = random_system(2070, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(2071, 2, 3))
    t = 0.2
    reference = solve_bbgky_cumulant(spec, f0, 1, t)

    q = QuadratureSpec(2, 32, "gauss-legendre-simplex")
    gauss = trace_norm(solve_bbgky_iteration(spec, f0, 1, t, q) - reference)
    _report(10, "iteration-order-2", gauss, 1e-5)

    errs = []
    for nodes in (8, 16, 32):
        q = QuadratureSpec(2, nodes, "nested-trapezoid")
        errs.append(trace_norm(solve_bbgky_iteration(spec, f0, 1, t, q) - reference))
    increase = max(errs[1] - errs[0], errs[2] - errs[1])
    print(
        "criterion 10 iteration-refinement: "
        f"{'PASS' if increase < 0 else 'FAIL'} (errors {errs[0]:.3e} -> "
        f"{errs[1]:.3e} -> {errs[2]:.3e})"
    )
    assert increase < 0.0


def test_criterion_11_correlation_observables():
    spec = random_system(2080, dim_single=2, orders=(2, 3))

    g0 = random_correlation_state(
        2081, 2, 3, norms=1e-5, traceless=True, symmetric=True
    )
    gt = solve_hierarchy(spec, g0, 0.4)
    comps = {s: reduce_from_correlations(gt, s) for s in (1, 2, 3)}
    f = MarginalState(OperatorSequence(2, 3, 1.0, comps))
    worst = 0.0
    for s in (1, 2):
        worst = max(
            worst,
            trace_norm(correlation_from_marginals(f, s) - correlation_from_g(gt, s)),
        )
    _report(11, "pair-correlation-paths", worst, 1e-9)

    d0 = random_density_state(2082, 2, 3, trace_scale=0.7)
    fd = marginal_state_from_density(d0)
    a1 = random_hermitian(rng_from_seed(2083), 2, 1.0)
    m1 = additive_observable_moment(d0, a1, 1)
    m2 = additive_observable_moment(d0, a1, 2)
    _report(
        11,
        "dispersion-second-moment",
        abs(additive_dispersion(a1, fd) - (m2 - m1 * m1)),
        1e-9,
    )

    g1 = chaos_one_particle(2084, 2, norm=0.7)
    t = 0.5
    gct = literal_cumulant_solution(spec, chaos_data(g1, 3), t)
    worst = 0.0
    for s in (1, 2):
        worst = max(
            worst,
            trace_norm(
                correlation_chaos_expansion(spec, g1, s, t, 3)
                - correlation_from_g(gct, s)
            ),
        )
    _report(11, "chaos-correlation-expansion", worst, 1e-9)


def test_criterion_12_chaos_property():
    spec = random_system(2090, dim_single=2, orders=(2, 3))
    g1 = chaos_one_particle(2091, 2, norm=0.8)
    worst = 0.0
    for t in (0.3, 0.9):
        one = ParticleSet.range1(1)
        direct = solve_chaos(spec, g1, 1, t)
        via_group = group_apply(make_unitary_group(spec, one), t, g1)
        worst = max(worst, trace_norm(direct - via_group))
        for n in (2, 3):
            a = solve_chaos(spec, g1, n, t)
            b = solve_chaos_scattering_form(spec, g1, n, t)
            worst = max(worst, trace_norm(a - b))
    _report(12, "chaos-two-forms", worst, 1e-9)

    # with no higher-order initial correlations, anything at t > 0 comes
    # from the cumulants alone: absent interactions nothing appears
    fspec = free_system(2092, dim_single=2)
    free_worst = 0.0
    for n in (2, 3):
        free_worst = max(free_worst, trace_norm(solve_chaos(fspec, g1, n, 0.7)))
    _report(12, "chaos-free-vanishing", free_worst, 1e-11)
    assert trace_norm(solve_chaos(spec, g1, 2, 0.7)) > 1e-4
