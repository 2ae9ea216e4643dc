"""Reduced operators, solution formulas, and observables.

The reduction formulas are checked against naive partial-trace sums built
with the brute-force helpers, the three solution routes against each other,
and the observables against moments computed straight from the density
sequence.
"""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from bruteforce import (
    complex_gaussian,
    naive_embed,
    naive_iteration_series,
    naive_moments,
    naive_partial_trace,
    naive_partitions,
    rand_op,
)
from qcorr.bbgky import (
    MarginalState,
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    average_particle_number,
    flow_observable_moments,
    marginal_state_from_density,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from qcorr import bbgky
from qcorr.bbgky import _collision, _collision_level, _embedded_group_conj, _interval_nodes
from qcorr.errors import NormalizationError
from qcorr.evolution import (
    DensityFlow,
    eigenbasis_parts,
    evolve_density_sequence,
    make_unitary_group,
    unitary_matrix,
)
from qcorr.hierarchy import DensityState, cluster_expand, solve_hierarchy
from qcorr.hamiltonian import build_hamiltonian
from qcorr.operators import ManyBodyOperator, partial_trace, symmetrize, trace_norm
from qcorr.partitions import ParticleSet
from qcorr.presets import (
    chaos_one_particle,
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_sequence,
    random_system,
    rng_from_seed,
)
from qcorr.star_algebra import OperatorSequence, annihilation_component, annihilation_scalar
from qcorr.verify import (
    chaos_data,
    cluster_argument_sequence,
    correlation_chaos_expansion,
    correlation_from_g,
    correlation_from_marginals,
    liouvillian_apply,
    literal_bbgky_cumulant,
    literal_cumulant_solution,
    reduce_from_correlations,
    shift_map,
)

TOL_TIGHT = 1e-10
TOL_SOLVE = 1e-9
TOL_SERIES = 1e-12


def _naive_marginals(d: DensityState):
    """Reference reduction: explicit trace sums over the raw matrices."""
    seq = d.seq
    dim = seq.dim_single
    z = 1.0 + 0.0j
    for n in range(1, seq.n_max + 1):
        if seq.has(n):
            z += np.trace(seq.components[n].matrix) / factorial(n)
    comps = {}
    for s in range(1, seq.n_max + 1):
        acc = np.zeros((dim**s,) * 2, dtype=complex)
        for n in range(0, seq.n_max - s + 1):
            if not seq.has(s + n):
                continue
            mat = seq.components[s + n].matrix
            traced = list(range(s, s + n))
            acc += naive_partial_trace(mat, s + n, dim, traced) / factorial(n)
        comps[s] = acc / z
    return z, comps


# ---------------------------------------------------------------------------
# reduction


def test_one_component_density_marginal():
    # with only D_1 present: F_1 = D_1 / (1 + tr D_1)
    d = random_density_state(200, 2, 1)
    d1 = d.seq.components[1].matrix
    expected = d1 / (1.0 + np.trace(d1))
    got = reduce_from_density(d, 1)
    assert np.max(np.abs(got.matrix - expected)) < 1e-14


def test_reduction_matches_naive_traces():
    d = random_density_state(201, 2, 3, trace_scale=0.9)
    z, comps = _naive_marginals(d)
    for s in (1, 2, 3):
        got = reduce_from_density(d, s)
        assert np.max(np.abs(got.matrix - comps[s])) < 1e-12

    # the one-component core of the reduction map, unnormalized, on a plain
    # sequence and on its prefixed shifts (the prefix is never traced); the
    # components are not exchange-symmetric, so tracing a wrong particle
    # shows, and n_max = 4 makes 1/n! differ from 1/n
    plain = random_sequence(204, 2, 4)
    for p in (0, 1, 2):
        f = plain if p == 0 else shift_map(plain, p)
        for s in range(0 if p else 1, f.n_max + 1):
            want = sum(
                naive_partial_trace(
                    plain.components[p + s + n].matrix,
                    p + s + n,
                    2,
                    list(range(p + s, p + s + n)),
                )
                / factorial(n)
                for n in range(0, f.n_max - s + 1)
            )
            got = annihilation_component(f, s)
            assert got.labels == ParticleSet.range1(p + s)
            assert np.max(np.abs(got.matrix - want)) < 1e-12
    # no component at or above s: the zero operator on (1..s)
    low = OperatorSequence(2, 3, 1.0, {1: d.seq.components[1]})
    assert not annihilation_component(low, 2).matrix.any()


def test_marginal_state_from_density_bundles_everything():
    d = random_density_state(202, 2, 3)
    _, comps = _naive_marginals(d)
    f = marginal_state_from_density(d)
    assert f.seq.scalar0 == 1.0
    for s in (1, 2, 3):
        assert np.max(np.abs(f.seq.components[s].matrix - comps[s])) < 1e-12


def test_reduction_input_validation():
    d = random_density_state(203, 2, 2)
    with pytest.raises(ValueError):
        reduce_from_density(d, 0)
    with pytest.raises(ValueError):
        reduce_from_density(d, 3)


def test_vanishing_normalization_rejected():
    # tr D_1 = -1 makes the normalization scalar exactly zero
    op = ManyBodyOperator(
        ParticleSet.range1(1), 2, np.diag([-1.0, 0.0]).astype(complex)
    )
    d = DensityState(OperatorSequence(2, 1, 1.0, {1: op}))
    with pytest.raises(NormalizationError):
        reduce_from_density(d, 1)
    with pytest.raises(NormalizationError):
        marginal_state_from_density(d)
    with pytest.raises(NormalizationError):
        additive_observable_moment(d, np.eye(2), 1)


def test_marginal_state_validation():
    op = ManyBodyOperator(ParticleSet.range1(1), 2, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        MarginalState(OperatorSequence(2, 1, 0.0, {1: op}))
    with pytest.raises(ValueError):
        MarginalState(OperatorSequence(2, 2, 1.0, {1: op}, 1))


# ---------------------------------------------------------------------------
# cluster-argument correlation components


def test_cluster_component_order_zero_is_density():
    d = random_density_state(210, 2, 3)
    for s in (1, 2, 3):
        got = cluster_argument_sequence(d.seq, s, 0).components[0]
        assert np.array_equal(got.matrix, d.seq.components[s].matrix)


def test_cluster_component_pair_formula():
    # s = 1, n = 1: two units, so D_2 minus the product of the D_1 copies
    d = random_density_state(211, 2, 2)
    d1 = d.seq.components[1].matrix
    d2 = d.seq.components[2].matrix
    got = cluster_argument_sequence(d.seq, 1, 1).components[1]
    assert np.max(np.abs(got.matrix - (d2 - np.kron(d1, d1)))) < 1e-14


# ---------------------------------------------------------------------------
# the three routes to F_s(t)


def test_solution_triangle():
    spec = random_system(300, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(
        301, 2, 3, norms=0.4, traceless=True, symmetric=True
    )
    d0 = cluster_expand(g0)
    f0 = marginal_state_from_density(d0)
    for t in (0.3, 0.7):
        dt = DensityState(evolve_density_sequence(spec, d0.seq, t))
        gt = solve_hierarchy(spec, g0, t)
        for s in (1, 2):
            a = reduce_from_density(dt, s)
            b = solve_bbgky_cumulant(spec, f0, s, t)
            c = reduce_from_correlations(gt, s)
            assert trace_norm(a - b) < TOL_SOLVE
            assert trace_norm(b - c) < TOL_SOLVE
            assert trace_norm(a - c) < TOL_SOLVE


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("symmetric", [True, False])
def test_cumulant_solution_equals_literal_cumulant_sum(d, symmetric):
    # the factorized route against the paper's per-partition cumulant sum;
    # the identity holds without exchange symmetry
    spec = random_system(360 + d, dim_single=d, orders=(2, 3))
    g0 = random_correlation_state(
        370 + d, d, 4, norms=0.4, traceless=True, symmetric=symmetric
    )
    f0 = marginal_state_from_density(cluster_expand(g0))
    for s in (1, 2, 3):
        for t in (0.3, 1.1):
            got = solve_bbgky_cumulant(spec, f0, s, t)
            want = literal_bbgky_cumulant(spec, f0, s, t)
            assert trace_norm(got - want) <= 1e-12 * trace_norm(want)


def test_reduce_from_correlations_at_time_zero():
    # the correlation route has the normalization built in, so it matches
    # the density route on normalized data (traceless makes the scalar 1)
    g0 = random_correlation_state(302, 2, 3, norms=0.5, traceless=True)
    d0 = cluster_expand(g0)
    for s in (1, 2, 3):
        a = reduce_from_correlations(g0, s)
        b = reduce_from_density(d0, s)
        assert trace_norm(a - b) < TOL_TIGHT


def test_cumulant_solution_zero_time_exact():
    spec = random_system(303, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(304, 2, 3))
    for s in (1, 2, 3):
        got = solve_bbgky_cumulant(spec, f0, s, 0.0)
        assert trace_norm(got - f0.seq.components[s]) == 0.0


def test_cumulant_solution_input_validation():
    spec = random_system(305, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(306, 2, 2))
    with pytest.raises(ValueError):
        solve_bbgky_cumulant(spec, f0, 0, 0.1)
    with pytest.raises(ValueError):
        solve_bbgky_cumulant(spec, f0, 3, 0.1)


# ---------------------------------------------------------------------------
# time-ordered iteration series


def test_quadrature_spec_validation():
    QuadratureSpec(2, 32)
    QuadratureSpec(0, 4)
    with pytest.raises(ValueError):
        QuadratureSpec(-1, 16)
    with pytest.raises(ValueError):
        QuadratureSpec(4, 16)
    with pytest.raises(ValueError):
        QuadratureSpec(2, 3)
    with pytest.raises(ValueError):
        QuadratureSpec(2, 65)


def test_iteration_matches_cumulant_solution():
    spec = random_system(310, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(311, 2, 3))
    t = 0.2
    reference = solve_bbgky_cumulant(spec, f0, 1, t)
    q = QuadratureSpec(2, 32)
    got = solve_bbgky_iteration(spec, f0, [1], t, q)[1]
    assert trace_norm(got - reference) < TOL_SERIES


def test_iteration_zero_time_exact():
    spec = random_system(312, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(313, 2, 3))
    q = QuadratureSpec(2, 8)
    got = solve_bbgky_iteration(spec, f0, [1], 0.0, q)[1]
    assert trace_norm(got - f0.seq.components[1]) == 0.0


def test_iteration_backwards_in_time_matches_cumulant_solution():
    # t < 0: every interval [t_j, t] runs backwards, with negative weights
    spec = random_system(310, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(311, 2, 3))
    t = -0.4
    reference = solve_bbgky_cumulant(spec, f0, 1, t)
    got = solve_bbgky_iteration(spec, f0, [1], t, QuadratureSpec(2, 16))[1]
    assert trace_norm(got - reference) <= 1e-12 * trace_norm(reference)


def test_gauss_error_decreases_with_nodes():
    # at t = 0.2 the error reaches round-off by 6 nodes; t = 2 leaves the
    # quadrature error in view at every count
    spec = random_system(314, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(315, 2, 3))
    t = 2.0
    reference = solve_bbgky_cumulant(spec, f0, 1, t)
    errs = []
    for nodes in (4, 5, 6, 8):
        q = QuadratureSpec(2, nodes)
        errs.append(trace_norm(solve_bbgky_iteration(spec, f0, [1], t, q)[1] - reference))
    assert all(b < a for a, b in zip(errs, errs[1:]))


# the ids of the iteration tests name the quadrature rule they run
GAUSS = "gauss-legendre-simplex"

# (s, order, nodes, d, n_max, t, data); d = 2 alone cannot tell a stride
# of d from 2, and t < 0 runs every interval [t_j, t] backwards.  Hermitian
# data take the collisions' shortcut Tr_m(X V_m) = Tr_m(V_m X)^*; complex
# Gaussian components keep every pair of pair-swap blocks, and symmetrized
# ones, exchange-symmetric but not Hermitian (the only such data that
# `qcorr run` lets `iterate` take), the diagonal pairs, both without it
CHAINS = [(1, 2, 5, 2, 4, 0.4, "hermitian"), (2, 2, 5, 2, 4, 0.4, "hermitian"),
          (3, 2, 5, 2, 4, 0.4, "hermitian"), (1, 3, 4, 2, 4, 0.4, "hermitian"),
          (1, 2, 4, 3, 3, 0.4, "hermitian"), (1, 2, 5, 2, 4, -0.4, "hermitian"),
          (1, 3, 4, 2, 4, 0.4, "complex"), (1, 2, 4, 3, 3, 0.4, "complex"),
          (1, 2, 4, 3, 3, 0.4, "symmetric")]


def _chain_id(s, order, nodes, d, n_max, t, data):
    return (f"{s}-{order}-{nodes}" + (f"-d{d}" if d != 2 else "")
            + (f"-t{t}" if t != 0.4 else "") + ("" if data == "hermitian" else f"-{data}")
            + f"-{GAUSS}")


def _complex_marginals(seed, d, n_max, symmetric=False):
    """A marginal sequence of complex Gaussian components, not Hermitian,
    each averaged over the particle permutations when ``symmetric``."""
    rng = rng_from_seed(seed)
    comps = {n: ManyBodyOperator(ParticleSet.range1(n), d, complex_gaussian(rng, d**n))
             for n in range(1, n_max + 1)}
    if symmetric:
        comps = {n: symmetrize(op) for n, op in comps.items()}
    return MarginalState(OperatorSequence(d, n_max, 1.0, comps))


@pytest.mark.parametrize(
    "s,order,nodes,d,n_max,t,data", CHAINS, ids=[_chain_id(*c) for c in CHAINS]
)
def test_iteration_matches_full_embedding_chain(s, order, nodes, d, n_max, t, data):
    # the literal chain keeps every operator on all s+n particles and traces
    # them out at the end; the series traces each level out right away
    spec = random_system(318, dim_single=d, orders=(2,), hbar=0.7)
    if data == "hermitian":
        f0 = marginal_state_from_density(random_density_state(319, d, n_max))
    else:
        f0 = _complex_marginals(320, d, n_max, symmetric=data == "symmetric")
    comps = {n: op.matrix for n, op in f0.seq.components.items()}
    ref = naive_iteration_series(
        spec.one_body, spec.potentials[2], spec.hbar, d, comps, s, t, order, nodes
    )
    got = solve_bbgky_iteration(spec, f0, [s], t, QuadratureSpec(order, nodes))[s]
    ref_op = ManyBodyOperator(ParticleSet.range1(s), d, ref)
    assert trace_norm(got - ref_op) <= 1e-13 * trace_norm(ref_op)


def _exact_simplex_moment(a, t):
    """Integral of prod_j t_j^a_j over 0 <= t_n <= ... <= t_1 <= t, exactly.

    Iterated in Fractions in the rule's order: t_1 innermost on [t_2, t],
    each t_j on [t_{j+1}, t], t_n outermost on [0, t].  ``poly`` maps the
    powers of the current variable to their coefficients.
    """
    poly = {a[0]: Fraction(1)}
    for j in range(1, len(a) + 1):
        # integrate over u on [v, t]: c u^p -> c (t^(p+1) - v^(p+1)) / (p+1)
        out = {0: sum(c * t ** (p + 1) / (p + 1) for p, c in poly.items())}
        for p, c in poly.items():
            out[p + 1] = -c / (p + 1)
        if j == len(a):
            return out[0]  # the outermost lower limit is 0
        poly = {p + a[j]: c for p, c in out.items()}


def _nested_rule(q, n, t):
    """Nodes (t_1..t_n) and weights of _interval_nodes nested, t_n outermost."""
    rows = [((), 1.0)]
    for _ in range(n):
        rows = [((node,) + ts, w * wn) for ts, w in rows
                for node, wn in _interval_nodes(q, ts[0] if ts else 0.0, t)]
    return np.array([ts for ts, _ in rows]), np.array([w for _, w in rows])


@pytest.mark.parametrize("t", [Fraction(3, 4), Fraction(-3, 4)], ids=["t0.75", "t-0.75"])
@pytest.mark.parametrize("k", [4, 5, 6])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nested_gauss_rule_is_exact_to_degree_2k_minus_n(n, k, t):
    # each level is exact to degree 2k - 1 in its variable, and every inner
    # integration raises the degree in the next variable by one
    nodes, weights = _nested_rule(QuadratureSpec(n, k), n, float(t))
    worst_beyond = 0.0
    for total in range(2 * k - n + 2):
        for a in itertools.product(range(total + 1), repeat=n):
            if sum(a) != total:
                continue
            want = float(_exact_simplex_moment(a, t))
            got = float(np.sum(weights * np.prod(nodes ** np.array(a), axis=1)))
            err = abs(got - want) / abs(want)
            if total <= 2 * k - n:
                assert err <= 1e-13, (a, err)
            else:
                worst_beyond = max(worst_beyond, err)
    # one degree more is not integrated exactly: the bound is sharp
    assert worst_beyond > 1e-7


def _count_collisions(monkeypatch):
    """Count _collision calls by the dimension of the level they act on."""
    counts = {}
    original = bbgky._collision

    def counting(level, parts, hermitian, tau):
        dim = level[0].eigenvalues.size
        counts[dim] = counts.get(dim, 0) + 1
        return original(level, parts, hermitian, tau)

    monkeypatch.setattr(bbgky, "_collision", counting)
    return counts


@pytest.mark.parametrize("order", [2, 3], ids=lambda order: f"{order}-{GAUSS}")
def test_top_level_runs_once_per_outer_node(monkeypatch, order):
    # term n takes the collision of G_{s+n}(t_n) F_{s+n} at the k nodes t_n
    # alone, not at all k^n leaves; the descent from level j reaches level m
    # once per node prefix (t_n, ..., t_m), so m runs k^(j-m+1) collisions
    counts = _count_collisions(monkeypatch)
    spec = random_system(332, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(333, 2, 4))
    solve_bbgky_iteration(spec, f0, [1], 0.3, QuadratureSpec(order, 5))
    top = 1 + order
    assert counts[2**top] == 5
    assert counts == {
        2**m: sum(5 ** (j - m + 1) for j in range(m, top + 1)) for m in range(2, top + 1)
    }


def test_top_level_is_shared_by_every_s(monkeypatch):
    # s = 1, 2, 3 all reach m = 4 at order 3, and s = 1, 2 reach m = 3; one
    # descent from each level serves every s, so the joint solve runs the
    # collisions of s = 1 alone
    counts = _count_collisions(monkeypatch)
    spec = random_system(332, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(333, 2, 4))
    solve_bbgky_iteration(spec, f0, [1, 2, 3], 0.3, QuadratureSpec(3, 5))
    assert counts == {4: 155, 8: 30, 16: 5}


@pytest.mark.parametrize("d,nodes,calls", [(3, 6, 309), (2, 16, 4659)])
def test_lower_levels_run_once_for_every_s(monkeypatch, d, nodes, calls):
    # s = 1, 2, 3 at order 3 and n_max = 4: a chain ends once per node prefix
    # from each level, at level 1 1 + k + k^2 + k^3 times (k nodes), at level
    # 2 1 + k + k^2 and at level 3 1 + k, as every s below a level shares
    # its descent; 3 + 3k + 2k^2 + k^3 in all.  Each end applies phases to
    # an operand already in the blocks, and no collision conjugates in full
    count = [0]
    original = bbgky.evolve_parts

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(bbgky, "evolve_parts", counting)
    spec = random_system(318, dim_single=d, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(319, d, 4))
    solve_bbgky_iteration(spec, f0, [1, 2, 3], 0.4, QuadratureSpec(3, nodes))
    assert count[0] == calls == 3 + 3 * nodes + 2 * nodes**2 + nodes**3


@pytest.mark.parametrize("order", [1, 2, 3], ids=lambda order: f"{order}-{GAUSS}")
def test_joint_solve_equals_solve_per_s_bit_for_bit(order):
    # one descent from each top level feeds every s, and each s keeps the
    # order of summation of a solve for it alone
    spec = random_system(334, dim_single=2, orders=(2,), hbar=0.7)
    f0 = marginal_state_from_density(random_density_state(335, 2, 4))
    q = QuadratureSpec(order, 5)
    joint = solve_bbgky_iteration(spec, f0, [1, 2, 3], 0.4, q)
    assert sorted(joint) == [1, 2, 3]
    for s in (1, 2, 3):
        alone = solve_bbgky_iteration(spec, f0, [s], 0.4, q)[s]
        assert joint[s].labels == alone.labels
        assert np.array_equal(joint[s].matrix.view(np.uint64), alone.matrix.view(np.uint64))


@pytest.mark.parametrize("t", [0.7, -0.4, 0.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_each_s_is_solved_alike_whatever_else_is_asked(d, t):
    # each s ends its chains at its own level of the shared descent; forward,
    # backward and at t = 0 (no node at all), and in either order of s
    spec = random_system(318, dim_single=d, orders=(2,), hbar=0.7)
    f0 = marginal_state_from_density(random_density_state(319, d, 4))
    q = QuadratureSpec(3, 4)
    up = solve_bbgky_iteration(spec, f0, [1, 2, 3], t, q)
    down = solve_bbgky_iteration(spec, f0, [3, 2, 1], t, q)
    for s in (1, 2, 3):
        alone = solve_bbgky_iteration(spec, f0, [s], t, q)[s].matrix.view(np.uint64)
        assert np.array_equal(up[s].matrix.view(np.uint64), alone)
        assert np.array_equal(down[s].matrix.view(np.uint64), alone)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_traced_commutator_matches_full_commutator_then_trace(d, m):
    # the collision kernel against G X G^* from numpy's whole-matrix eigh,
    # its commutator with V_m in full and the trace over particle m.  X is a
    # non-symmetric complex Gaussian, so it keeps every pair of blocks and no
    # symmetry can hide an error; its Hermitian part takes the shortcut
    spec = random_system(340 + 10 * d + m, dim_single=d, orders=(2,), hbar=0.7)
    labels = ParticleSet.range1(m)
    pairs = [naive_embed(spec.potentials[2], [i, m - 1], m, d) for i in range(m - 1)]
    v = ManyBodyOperator(labels, d, sum(pairs))
    lam, vec = np.linalg.eigh(build_hamiltonian(spec, labels).matrix)
    ug = make_unitary_group(spec, labels)
    level = _collision_level(spec, ug)
    x = complex_gaussian(rng_from_seed(341 + 10 * d + m), d**m)
    for operand, hermitian in ((x, False), ((x + x.conj().T) / 2, True)):
        parts = eigenbasis_parts(ug, operand)
        for tau in (0.0, 0.6):
            g = (vec * np.exp(-1j * tau / spec.hbar * lam)) @ vec.conj().T
            moved = ManyBodyOperator(labels, d, g @ operand @ g.conj().T)
            want = partial_trace(liouvillian_apply(v, moved, spec.hbar), ParticleSet((m,)))
            got = _collision(level, parts, hermitian, tau)
            got_op = ManyBodyOperator(ParticleSet.range1(m - 1), d, got)
            assert trace_norm(got_op - want) <= 1e-13 * trace_norm(want)


def test_iteration_requires_pair_potential_only():
    f0 = marginal_state_from_density(random_density_state(316, 2, 2))
    q = QuadratureSpec(1, 8)
    with pytest.raises(ValueError):
        solve_bbgky_iteration(
            random_system(317, dim_single=2, orders=(2, 3)), f0, [1], 0.1, q
        )
    with pytest.raises(ValueError):
        solve_bbgky_iteration(
            random_system(317, dim_single=2, orders=(3,)), f0, [1], 0.1, q
        )


# ---------------------------------------------------------------------------
# correlation operators from marginals


def test_pair_correlation_hand_formula():
    rng = rng_from_seed(400)
    f1 = random_hermitian(rng, 2, 1.0)
    f2 = random_hermitian(rng, 4, 1.0)
    comps = {
        1: ManyBodyOperator(ParticleSet.range1(1), 2, f1),
        2: ManyBodyOperator(ParticleSet.range1(2), 2, f2),
    }
    f = MarginalState(OperatorSequence(2, 2, 1.0, comps))
    got = correlation_from_marginals(f, 2)
    assert np.max(np.abs(got.matrix - (f2 - np.kron(f1, f1)))) < 1e-14


def test_correlation_from_marginals_partition_oracle():
    f = marginal_state_from_density(random_density_state(401, 2, 3))
    dim = 2
    mats = {s: f.seq.components[s].matrix for s in (1, 2, 3)}
    for s in (1, 2, 3):
        acc = np.zeros((dim**s,) * 2, dtype=complex)
        for part in naive_partitions(list(range(s))):
            coeff = (-1) ** (len(part) - 1) * factorial(len(part) - 1)
            term = np.eye(dim**s, dtype=complex)
            for block in part:
                term = term @ naive_embed(mats[len(block)], sorted(block), s, dim)
            acc += coeff * term
        got = correlation_from_marginals(f, s)
        assert np.max(np.abs(got.matrix - acc)) < 1e-12


def test_correlation_triangle_small_amplitude():
    # both constructions of G_s agree along the flow when the state is weak
    spec = random_system(320, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(
        321, 2, 3, norms=1e-5, traceless=True, symmetric=True
    )
    gt = solve_hierarchy(spec, g0, 0.4)
    comps = {s: reduce_from_correlations(gt, s) for s in (1, 2, 3)}
    f = MarginalState(OperatorSequence(2, 3, 1.0, comps))
    for s in (1, 2):
        a = correlation_from_marginals(f, s)
        b = correlation_from_g(gt, s)
        assert trace_norm(a - b) < TOL_SOLVE


def test_correlation_input_validation():
    f = marginal_state_from_density(random_density_state(402, 2, 2))
    with pytest.raises(ValueError):
        correlation_from_marginals(f, 0)
    with pytest.raises(ValueError):
        correlation_from_marginals(f, 3)
    g = random_correlation_state(403, 2, 2)
    with pytest.raises(ValueError):
        correlation_from_g(g, 3)


def test_chaos_expansion_matches_reduction():
    spec = random_system(330, dim_single=2, orders=(2, 3))
    g1 = chaos_one_particle(331, 2, norm=0.7)
    t = 0.5
    gt = literal_cumulant_solution(spec, chaos_data(g1, 3), t)
    for s in (1, 2):
        a = correlation_chaos_expansion(spec, g1, s, t, 3)
        b = correlation_from_g(gt, s)
        assert trace_norm(a - b) < TOL_SOLVE


def test_chaos_expansion_needs_one_particle_data():
    spec = random_system(332, dim_single=2, orders=(2,))
    g2 = ManyBodyOperator(ParticleSet.range1(2), 2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        correlation_chaos_expansion(spec, g2, 1, 0.1, 2)


# ---------------------------------------------------------------------------
# observables


def test_average_particle_number_conserved():
    spec = random_system(340, dim_single=2, orders=(2, 3))
    d0 = random_density_state(341, 2, 3, trace_scale=0.8)
    n0 = average_particle_number(marginal_state_from_density(d0))
    for t in (0.3, 0.9):
        dt = DensityState(evolve_density_sequence(spec, d0.seq, t))
        nt = average_particle_number(marginal_state_from_density(dt))
        assert abs(nt - n0) < TOL_TIGHT


def test_average_number_one_component():
    d = random_density_state(342, 2, 1, trace_scale=0.9)
    tr = d.seq.components[1].trace.real
    got = average_particle_number(marginal_state_from_density(d))
    assert abs(got - tr / (1.0 + tr)) < 1e-12


def test_moment_matches_naive_embedding():
    d = random_density_state(350, 2, 3, trace_scale=0.7)
    rng = rng_from_seed(351)
    a1 = random_hermitian(rng, 2, 1.0)
    for power in (1, 2):
        got = additive_observable_moment(d, a1, power)
        assert abs(got - naive_moments(d.seq, a1)[power - 1]) < 1e-11


@pytest.mark.parametrize("d", [2, 3])
def test_eigenbasis_moments_equal_the_moments_of_the_evolved_density(d):
    spec = random_system(355 + d, dim_single=d, orders=(2, 3))
    d0 = random_density_state(357 + d, d, 3, trace_scale=0.7)
    a1 = random_hermitian(rng_from_seed(359 + d), d, 1.0)
    times = [-0.7, 0.0, 0.3, 1.1]
    # a density that is not exchange-symmetric keeps every pair of pair-swap
    # blocks in the flow, of which the block-diagonal observable reads the
    # diagonal pairs alone
    comps = {
        n: op + 0.1 * rand_op(361 + n, op.labels, d) for n, op in d0.seq.components.items()
    }
    asymmetric = DensityState(OperatorSequence(d, 3, d0.seq.scalar0, comps))
    for d0 in (d0, asymmetric):
        z = annihilation_scalar(d0.seq)
        got = flow_observable_moments(DensityFlow(spec, d0.seq), a1, times, z)
        for t, row in zip(times, got, strict=True):
            comps = {}
            for n, op in d0.seq.components.items():
                u = unitary_matrix(make_unitary_group(spec, op.labels), t)
                comps[n] = ManyBodyOperator(op.labels, d, u @ op.matrix @ u.conj().T)
            dt = DensityState(OperatorSequence(d, 3, 1.0, comps))
            number = float(reduce_from_density(dt, 1).trace.real)
            moments = [additive_observable_moment(dt, a1, k) for k in (1, 2)]
            for g, w in zip(row, (number, *moments), strict=True):
                assert abs(g - w) <= 1e-13 * max(1.0, abs(w)), (t, g, w)


def test_dispersion_matches_central_moment():
    d = random_density_state(352, 2, 3, trace_scale=0.7)
    f = marginal_state_from_density(d)
    rng = rng_from_seed(353)
    a1 = random_hermitian(rng, 2, 1.0)
    m1 = additive_observable_moment(d, a1, 1)
    m2 = additive_observable_moment(d, a1, 2)
    assert abs(additive_dispersion(a1, f) - (m2 - m1 * m1)) < TOL_SOLVE


def test_uncorrelated_pair_term_vanishes():
    f1 = marginal_state_from_density(
        random_density_state(354, 2, 2)
    ).seq.components[1]
    prod = ManyBodyOperator(
        ParticleSet.range1(2), 2, np.kron(f1.matrix, f1.matrix)
    )
    f = MarginalState(OperatorSequence(2, 2, 1.0, {1: f1, 2: prod}))
    rng = rng_from_seed(355)
    a1 = random_hermitian(rng, 2, 1.0)
    got = additive_dispersion(a1, f)
    only_first = np.trace(a1 @ a1 @ f1.matrix).real
    assert abs(got - only_first) < TOL_TIGHT


def test_zero_observable_zero_dispersion():
    f = marginal_state_from_density(random_density_state(356, 2, 2))
    assert additive_dispersion(np.zeros((2, 2)), f) == 0.0


def test_observable_validation():
    f = marginal_state_from_density(random_density_state(357, 2, 2))
    with pytest.raises(ValueError):
        additive_dispersion(np.eye(3), f)
    one = MarginalState(OperatorSequence(2, 1, 1.0, {1: f.seq.components[1]}))
    with pytest.raises(ValueError):
        additive_dispersion(np.eye(2), one)
    d = random_density_state(358, 2, 2)
    with pytest.raises(ValueError):
        additive_observable_moment(d, np.eye(2), 3)


def test_embedded_group_conj_refuses_a_propagator_of_other_size(spec_pair):
    full = ParticleSet.range1(2)
    x = ManyBodyOperator(full, 2, np.eye(4))
    with pytest.raises(ValueError, match="3 particles"):
        _embedded_group_conj(spec_pair, full, 3, 0.2, x)
    with pytest.raises(ValueError, match="1 particles"):
        _embedded_group_conj(spec_pair, full, 1, 0.0, x)
