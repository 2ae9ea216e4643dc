import sys

import numpy as np
import pytest

from bruteforce import naive_partitions
from qcorr import hierarchy
from qcorr.evolution import group_apply, make_unitary_group
from qcorr.hierarchy import (
    CorrelationState,
    DensityState,
    cluster_expand,
    cluster_invert,
    literal_cluster_transform,
    solve_hierarchy,
    solve_via_density_oracle,
)
from qcorr.operators import (
    relabel,
    tensor_product,
    trace_norm,
)
from qcorr.partitions import ParticleSet
from qcorr.presets import (
    chaos_one_particle,
    random_correlation_state,
    random_operator,
    random_system,
    rng_from_seed,
)
from qcorr.star_algebra import OperatorSequence
from qcorr.verify import (
    chaos_data,
    derivative,
    literal_cumulant_solution,
    nonlinear_generator,
    seq_residual,
    solve_chaos,
    solve_chaos_scattering_form,
    verify_group_property,
    verify_growth_bound,
    weak_solution_check,
)

TOL = 1e-12


def gstate(seed, n_max=3, norms=0.5):
    return random_correlation_state(seed, 2, n_max, norms=norms)


def test_state_wrappers_validate():
    f = gstate(120).seq
    with pytest.raises(ValueError):
        DensityState(f)  # density needs scalar 1
    one = OperatorSequence(2, f.n_max, 1.0, dict(f.components))
    with pytest.raises(ValueError):
        CorrelationState(one)


def test_cluster_expand_pair_formula():
    g = gstate(121, n_max=2)
    d = cluster_expand(g)
    g1, g2 = g.seq.components[1], g.seq.components[2]
    prod = tensor_product(
        [relabel(g1, ParticleSet((1,))), relabel(g1, ParticleSet((2,)))]
    )
    assert np.allclose(d.seq.components[2].matrix, g2.matrix + prod.matrix, atol=TOL)
    assert d.seq.scalar0 == 1.0


def test_cluster_expand_matches_partition_oracle():
    g = gstate(122)
    d = cluster_expand(g)
    for n in (1, 2, 3):
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for p in naive_partitions(tuple(range(1, n + 1))):
            factors = [
                relabel(g.seq.components[len(b)], ParticleSet.of(b)) for b in p
            ]
            acc = acc + tensor_product(factors).matrix
        assert np.allclose(d.seq.components[n].matrix, acc, atol=TOL)


def test_cluster_roundtrip():
    g = gstate(123)
    back = cluster_invert(cluster_expand(g))
    assert seq_residual(back.seq, g.seq) <= 1e-11
    d = cluster_expand(gstate(124))
    there = cluster_expand(cluster_invert(d))
    assert seq_residual(there.seq, d.seq) <= 1e-11


def test_solution_at_zero_time_is_initial_data(spec2):
    g = gstate(125)
    out = solve_hierarchy(spec2, g, 0.0)
    assert out is g
    assert seq_residual(out.seq, g.seq) == 0.0


def test_first_component_evolves_under_one_particle_group(spec2):
    g = gstate(126)
    t = 0.8
    out = solve_hierarchy(spec2, g, t)
    ug = make_unitary_group(spec2, ParticleSet.range1(1))
    want = group_apply(ug, t, g.seq.components[1])
    assert trace_norm(out.seq.components[1] - want) <= TOL


@pytest.mark.parametrize("seed,t", [(127, 0.1), (128, 0.5), (129, 1.0)])
def test_solution_matches_density_oracle(spec2, seed, t):
    g = gstate(seed)
    fast = solve_hierarchy(spec2, g, t)
    slow = solve_via_density_oracle(spec2, g, t)
    assert seq_residual(fast.seq, slow.seq) <= 1e-9


def test_solution_matches_oracle_pair_interaction_only(spec_pair):
    g = gstate(130)
    fast = solve_hierarchy(spec_pair, g, 0.7)
    slow = solve_via_density_oracle(spec_pair, g, 0.7)
    assert seq_residual(fast.seq, slow.seq) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_regrouped_solution_equals_literal_cumulant_sum(d):
    spec = random_system(133, dim_single=d, orders=(2, 3))
    g = random_correlation_state(134, d, 4, norms=0.5)
    for t in (0.3, 1.1):
        solved = solve_hierarchy(spec, g, t)
        literal = literal_cumulant_solution(spec, g, t)
        assert seq_residual(solved.seq, literal.seq) <= 1e-12


def _perturbed(transform, bump):
    """transform with ``bump`` added to component 1 of its result."""

    def wrapped(seq, *args, **kwargs):
        out = transform(seq, *args, **kwargs)
        comps = dict(out.components)
        comps[1] = comps[1] + bump
        return OperatorSequence(out.dim_single, out.n_max, out.scalar0, comps)

    return wrapped


def test_oracle_shares_no_star_recursion_with_the_solver(spec2, monkeypatch):
    g = gstate(155)
    t = 0.6
    solved = solve_hierarchy(spec2, g, t).seq
    oracle = solve_via_density_oracle(spec2, g, t).seq
    bump = random_operator(rng_from_seed(156), ParticleSet.range1(1), 2) * 1e-7
    monkeypatch.setattr(hierarchy, "star_exp", _perturbed(hierarchy.star_exp, bump))
    monkeypatch.setattr(hierarchy, "star_ln", _perturbed(hierarchy.star_ln, bump))
    moved = solve_hierarchy(spec2, g, t).seq
    still = solve_via_density_oracle(spec2, g, t).seq
    assert still.components.keys() == oracle.components.keys()
    for n, op in oracle.components.items():
        assert np.array_equal(still.components[n].matrix, op.matrix)
    assert seq_residual(moved, solved) > 1e-8


def test_one_conjugation_per_particle_number(spec2, monkeypatch):
    # the density flow evolves each component once, in its eigenbasis: one
    # set of phases per particle number, and no propagator or kernel call
    g = gstate(157, n_max=4)
    calls = {"phases": 0, "unitary_matrix": 0, "group_apply": 0, "group_apply_on_subsets": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    # every qcorr module that binds either name, so no import route escapes
    modules = [m for key, m in sys.modules.items() if key.startswith("qcorr.")]
    for name in calls:
        for module in modules:
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    solve_hierarchy(spec2, g, 0.7)
    assert calls == {
        "phases": 4, "unitary_matrix": 0, "group_apply": 0, "group_apply_on_subsets": 0
    }


def test_cluster_transforms_equal_star_series():
    g = gstate(135, n_max=4)
    d = cluster_expand(g)
    exp_literal = literal_cluster_transform(g.seq, signed=False)
    ln_literal = literal_cluster_transform(d.seq, signed=True)
    assert seq_residual(d.seq, exp_literal) <= 1e-14
    assert seq_residual(cluster_invert(d).seq, ln_literal) <= 1e-14


def test_chaos_solution_equals_hierarchy_on_product_data(spec2):
    g1 = chaos_one_particle(131, 2, norm=0.8)
    t = 0.6
    for n in (1, 2, 3):
        direct = solve_chaos(spec2, g1, n, t)
        comps = {1: g1}
        g0 = CorrelationState(OperatorSequence(2, n, 0.0, comps))
        via = solve_hierarchy(spec2, g0, t)
        assert trace_norm(direct - via.seq.component(n)) <= 1e-10


def test_chaos_solution_equals_literal_cumulant_sum(spec2):
    # the oracle route against the paper's nth-order cumulant applied to
    # the n-fold product of g1
    g1 = chaos_one_particle(137, 2, norm=0.8)
    for t in (0.3, 1.1):
        literal = literal_cumulant_solution(spec2, chaos_data(g1, 4), t).seq
        for n in (1, 2, 3, 4):
            got = solve_chaos(spec2, g1, n, t)
            assert trace_norm(got - literal.component(n)) <= 1e-12


def test_chaos_forms_agree(spec2):
    g1 = chaos_one_particle(132, 2, norm=0.8)
    for n in (2, 3):
        a = solve_chaos(spec2, g1, n, 0.5)
        b = solve_chaos_scattering_form(spec2, g1, n, 0.5)
        assert trace_norm(a - b) <= 1e-9


def test_chaos_correlations_vanish_for_free_system(spec_free):
    g1 = chaos_one_particle(133, 2, norm=0.8)
    for n in (2, 3):
        out = solve_chaos(spec_free, g1, n, 0.9)
        assert trace_norm(out) <= 1e-11


def test_chaos_correlations_appear_for_interacting_system(spec2):
    g1 = chaos_one_particle(134, 2, norm=0.8)
    out = solve_chaos(spec2, g1, 2, 0.9)
    assert trace_norm(out) > 1e-4


def test_chaos_input_validation(spec2):
    bad = random_operator(rng_from_seed(135), ParticleSet.range1(2), 2)
    with pytest.raises(ValueError):
        solve_chaos(spec2, bad, 2, 0.5)
    g1 = chaos_one_particle(136, 2)
    with pytest.raises(ValueError):
        solve_chaos_scattering_form(spec2, g1, 1, 0.5)


def test_nonlinear_generator_matches_finite_difference(spec2):
    g = gstate(137)
    gen = nonlinear_generator(spec2, g)
    for n in (1, 2, 3):
        fd = derivative(lambda t: solve_hierarchy(spec2, g, t).seq.components[n].matrix)
        assert np.abs(fd - gen.seq.components[n].matrix).max() <= 1e-12


def test_nonlinear_generator_linear_part_only_for_chaos_free(spec_free):
    # no interactions: generator reduces to the commutator on each component
    from qcorr.hamiltonian import build_hamiltonian
    from qcorr.verify import liouvillian_apply

    g = gstate(138)
    gen = nonlinear_generator(spec_free, g)
    for n in (1, 2, 3):
        h = build_hamiltonian(spec_free, ParticleSet.range1(n))
        want = liouvillian_apply(h, g.seq.components[n], spec_free.hbar)
        assert trace_norm(gen.seq.components[n] - want) <= TOL


@pytest.mark.parametrize("t1,t2", [(0.3, 0.4), (0.9, -0.2)])
def test_group_property(spec2, t1, t2):
    g = gstate(139)
    assert verify_group_property(spec2, g, t1, t2) <= 1e-9


def test_group_property_rejects_large_times(spec2):
    with pytest.raises(ValueError):
        verify_group_property(spec2, gstate(140), 3.0, 0.1)


def test_growth_bound_on_seeded_states(spec2):
    rng = rng_from_seed(141)
    for k in range(10):
        norms = rng.uniform(0.1, 1.5, size=4).tolist()
        g = random_correlation_state(142 + k, 2, 4, norms=norms)
        for n in (1, 2, 3, 4):
            lhs, rhs = verify_growth_bound(spec2, g, 1.0, n)
            assert lhs <= rhs
    with pytest.raises(ValueError):
        verify_growth_bound(spec2, gstate(150), 0.5, 5)


def test_weak_form_of_the_equations(spec2):
    g = gstate(151)
    phi = random_operator(rng_from_seed(152), ParticleSet.range1(2), 2)
    assert weak_solution_check(spec2, phi, g, 0.4) <= 1e-13
    phi3 = random_operator(rng_from_seed(153), ParticleSet.range1(3), 2)
    assert weak_solution_check(spec2, phi3, g, 0.4) <= 1e-13
    bad = random_operator(rng_from_seed(154), ParticleSet.of([2, 3]), 2)
    with pytest.raises(ValueError):
        weak_solution_check(spec2, bad, g, 0.4)
