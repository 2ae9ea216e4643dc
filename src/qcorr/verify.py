"""Self-verification suites: each check measures one law and its residual.

A report lists, per check, the law being exercised, the measured residual,
the tolerance, the verdict, and the headroom residual / tolerance (above 1
fails; null for exact checks, whose tolerance is 0), plus the report's
largest headroom, so a check drifting towards failure shows before it fails.
All inputs are seeded so reports are
identical run to run.  Checks are independent, so a thread pool may compute
them concurrently; results are assembled in declaration order either way.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bbgky import (
    MarginalState,
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    average_particle_number,
    correlation_chaos_expansion,
    correlation_from_g,
    correlation_from_marginals,
    marginal_state_from_density,
    reduce_from_correlations,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from .cumulants import (
    cumulant_apply,
    cumulant_generator_fd,
    cumulant_vanishes_free,
    recover_group_from_cumulants,
    scattering_generator_expected,
    scattering_operator_apply,
)
from .evolution import (
    evolve_density_sequence,
    group_apply,
    make_unitary_group,
    unitary_matrix,
)
from .hamiltonian import (
    build_hamiltonian,
    cluster_interaction_apply,
    liouvillian_apply,
)
from .hierarchy import (
    _componentwise,
    CorrelationState,
    chaos_data,
    cluster_expand,
    DensityState,
    literal_cluster_transform,
    nonlinear_generator,
    solve_chaos,
    solve_chaos_scattering_form,
    solve_hierarchy,
    solve_via_density_oracle,
    verify_group_property,
    verify_growth_bound,
    weak_solution_check,
)
from .operators import (
    ManyBodyOperator,
    min_eigenvalue,
    trace_norm,
)
from .partitions import (
    ClusterSet,
    ParticleSet,
    bell_number,
    enumerate_partitions,
    mobius_coefficient,
    partition_alternating_sum,
    stirling2,
)
from .presets import (
    chaos_one_particle,
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_operator,
    random_sequence,
    random_system,
    free_system,
    rng_from_seed,
)
from .star_algebra import (
    OperatorSequence,
    annihilation_component,
    product_reduction_residual,
    seq_add,
    seq_block_product,
    seq_residual,
    shift_map,
    star_exp,
    star_ln,
    star_product,
    unit_sequence,
    verify_lemma2,
    verify_lemma3,
)


@dataclass(frozen=True)
class Check:
    name: str
    law: str
    tolerance: float
    fn: Callable[[], float]


def _fd_sequence(solve, h: float):
    """Componentwise central difference of a time-parametrized sequence map."""
    plus = solve(h).seq
    minus = solve(-h).seq
    comps = {}
    for n in sorted(set(plus.support) | set(minus.support)):
        comps[n] = (plus.component(n) - minus.component(n)) * (1.0 / (2 * h))
    return OperatorSequence(plus.dim_single, plus.n_max, 0.0, comps)


# ---------------------------------------------------------------------------
# combinatorics


def _suite_combinatorics() -> list[Check]:
    def alternating():
        worst = 0
        for n in range(1, 13):
            want = 1 if n == 1 else 0
            worst = max(worst, abs(partition_alternating_sum(n) - want))
        return float(worst)

    def bell_counts():
        worst = 0
        for n in range(1, 9):
            got = len(enumerate_partitions(ParticleSet.range1(n)))
            worst = max(worst, abs(got - bell_number(n)))
        return float(worst)

    def stirling_block_count():
        worst = 0
        for n in range(1, 9):
            parts = enumerate_partitions(ParticleSet.range1(n))
            counts = Counter(len(p) for p in parts)
            for k in range(1, n + 1):
                worst = max(worst, abs(counts[k] - stirling2(n, k)))
        return float(worst)

    def bell_triangle():
        # Aitken's array: each row opens with the previous row's last entry,
        # and B_n opens row n
        worst, row = 0, [1]
        for n in range(1, 13):
            nxt = [row[-1]]
            for x in row:
                nxt.append(nxt[-1] + x)
            row = nxt
            worst = max(worst, abs(row[0] - bell_number(n)))
        return float(worst)

    def mobius_lattice():
        # mu(P, top) on the partition lattice of {1..5} by its defining
        # recursion, -sum of mu over the strictly coarser partitions
        parts = sorted(enumerate_partitions(ParticleSet.range1(5)), key=len)
        mu, worst = [], 0
        for i, p in enumerate(parts):
            coarser = [
                j for j in range(i)
                if all(any(b.issubset(c) for c in parts[j]) for b in p)
            ]
            mu.append(-sum(mu[j] for j in coarser) if coarser else 1)
            worst = max(worst, abs(mu[i] - mobius_coefficient(len(p))))
        return float(worst)

    return [
        Check(
            "alternating-sum-delta",
            "signed partition count collapses to 1 at n=1 and 0 for n=2..12",
            0.0,
            alternating,
        ),
        Check(
            "bell-partition-count",
            "enumerating partitions of n elements yields the nth Bell number",
            0.0,
            bell_counts,
        ),
        Check(
            "stirling-block-count",
            "S(n,k) counts the enumerated partitions of n elements with k "
            "blocks, n up to 8",
            0.0,
            stirling_block_count,
        ),
        Check(
            "bell-triangle",
            "Bell numbers agree with the Bell triangle (Aitken's array) for "
            "n up to 12",
            0.0,
            bell_triangle,
        ),
        Check(
            "mobius-lattice",
            "the partition-lattice Moebius function mu(P, top) from its "
            "recursion equals (-1)^(b-1) (b-1)! for b blocks, n = 5",
            0.0,
            mobius_lattice,
        ),
    ]


# ---------------------------------------------------------------------------
# group-law


def _suite_group_law() -> list[Check]:
    spec = random_system(101, dim_single=2, orders=(2, 3))
    labels = ParticleSet.range1(3)
    ug = make_unitary_group(spec, labels)
    rng = rng_from_seed(131)
    f = ManyBodyOperator(labels, 2, random_hermitian(rng, 8, 1.0))

    def composition():
        lhs = unitary_matrix(ug, 0.3) @ unitary_matrix(ug, 0.7)
        rhs = unitary_matrix(ug, 1.0)
        return float(np.linalg.norm(lhs - rhs))

    def unitarity():
        u = unitary_matrix(ug, 1.3)
        return float(np.linalg.norm(u @ u.conj().T - np.eye(8)))

    def inverse():
        back = group_apply(ug, -0.9, group_apply(ug, 0.9, f))
        return trace_norm(back - f)

    def isometry():
        return abs(trace_norm(group_apply(ug, 1.1, f)) - trace_norm(f))

    def spectrum():
        a = np.linalg.eigvalsh(f.matrix)
        b = np.linalg.eigvalsh(group_apply(ug, 0.7, f).matrix)
        return float(np.max(np.abs(a - b)))

    def zero_time():
        g = random_correlation_state(161, 2, 3, norms=0.5)
        d0 = cluster_expand(g).seq
        return seq_residual(evolve_density_sequence(spec, d0, 0.0), d0)

    return [
        Check(
            "composition",
            "propagators compose additively in time: U(a) U(b) = U(a+b)",
            1e-10,
            composition,
        ),
        Check("unitarity", "the propagator times its adjoint is the identity", 1e-10, unitarity),
        Check(
            "inverse",
            "conjugating forward then backward in time returns the operand",
            1e-10,
            inverse,
        ),
        Check(
            "trace-norm-isometry",
            "conjugation by the propagator preserves the trace norm",
            1e-10,
            isometry,
        ),
        Check(
            "spectrum-preservation",
            "conjugation by the propagator preserves eigenvalues",
            1e-9,
            spectrum,
        ),
        Check(
            "zero-time-identity",
            "evolving a density sequence by t=0 returns it unchanged",
            0.0,
            zero_time,
        ),
    ]


# ---------------------------------------------------------------------------
# cumulant-inversion


def _suite_cumulant_inversion() -> list[Check]:
    spec = random_system(202, dim_single=2, orders=(2, 3))

    def make(n: int):
        def run():
            labels = ParticleSet.range1(n)
            rng = rng_from_seed(240 + n)
            f = ManyBodyOperator(labels, 2, random_hermitian(rng, 2**n, 1.0))
            ug = make_unitary_group(spec, labels)
            worst = 0.0
            for t in (0.3, 1.0):
                rebuilt = recover_group_from_cumulants(spec, t, labels, f)
                direct = group_apply(ug, t, f)
                worst = max(worst, trace_norm(rebuilt - direct))
            return worst

        return run

    return [
        Check(
            f"order-{n}",
            "summing per-block cumulant products over partitions rebuilds "
            f"the {n}-particle propagator conjugation",
            1e-9,
            make(n),
        )
        for n in (1, 2, 3)
    ]


# ---------------------------------------------------------------------------
# free-cumulants


def _suite_free_cumulants() -> list[Check]:
    spec = free_system(303, dim_single=2)

    def make(n: int):
        def run():
            rng = rng_from_seed(350 + n)
            f = ManyBodyOperator(
                ParticleSet.range1(n), 2, random_hermitian(rng, 2**n, 1.0)
            )
            return max(
                cumulant_vanishes_free(spec, n, f, t) for t in (0.5, 2.0)
            )

        return run

    return [
        Check(
            f"vanishing-order-{n}",
            f"without interactions every {n}-cluster cumulant is zero",
            1e-11,
            make(n),
        )
        for n in (2, 3)
    ]


# ---------------------------------------------------------------------------
# oracle


def literal_cumulant_solution(
    spec, g0: CorrelationState, t: float
) -> CorrelationState:
    """The paper's solution formula term by term, the reference route.

    Component n sums, over partitions P of (1..n), the cumulant over P's
    blocks at time t applied to the product of initial blocks g_|B|: one
    full cumulant per partition, where solve_hierarchy evolves the density
    components once each.
    """
    seq = g0.seq

    def term(blocks: ClusterSet) -> ManyBodyOperator | None:
        operand = seq_block_product(seq, blocks)
        if operand is None:
            return None
        return cumulant_apply(spec, t, blocks, operand)

    comps = _componentwise(seq, term, signed=False)
    return CorrelationState(OperatorSequence(seq.dim_single, seq.n_max, 0.0, comps))


def _suite_oracle() -> list[Check]:
    def make_seeded(k: int):
        def run():
            spec = random_system(500 + k, dim_single=2, orders=(2, 3))
            g0 = random_correlation_state(900 + k, 2, 3, norms=0.6)
            worst = 0.0
            for t in (0.1, 0.5, 1.0):
                oracle = solve_via_density_oracle(spec, g0, t).seq
                for route in (solve_hierarchy, literal_cumulant_solution):
                    worst = max(worst, seq_residual(route(spec, g0, t).seq, oracle))
            return worst

        return run

    checks = [
        Check(
            f"seed-{k}",
            "the solver and the literal partition sum of cumulants both "
            "equal partition-sum Exp, evolve componentwise, partition-sum Ln",
            1e-9,
            make_seeded(k),
        )
        for k in range(20)
    ]

    def chaos_consistency():
        spec = random_system(550, dim_single=2, orders=(2, 3))
        g1 = chaos_one_particle(955, 2, norm=0.8)
        literal = literal_cumulant_solution(spec, chaos_data(g1, 3), 0.4).seq
        worst = 0.0
        for n in (2, 3):
            direct = solve_chaos(spec, g1, n, 0.4)
            worst = max(worst, trace_norm(direct - literal.component(n)))
        return worst

    def chaos_scattering():
        spec = random_system(550, dim_single=2, orders=(2, 3))
        g1 = chaos_one_particle(955, 2, norm=0.8)
        worst = 0.0
        for n in (2, 3):
            for t in (0.3, 0.9):
                a = solve_chaos(spec, g1, n, t)
                b = solve_chaos_scattering_form(spec, g1, n, t)
                worst = max(worst, trace_norm(a - b))
        return worst

    def chaos_free():
        spec = free_system(560, dim_single=2)
        g1 = chaos_one_particle(956, 2, norm=0.8)
        return max(
            trace_norm(solve_chaos(spec, g1, n, 1.0)) for n in (2, 3)
        )

    checks += [
        Check(
            "chaos-consistency",
            "for independent initial particles the chaos solution matches "
            "the literal cumulant sum on the product data",
            1e-10,
            chaos_consistency,
        ),
        Check(
            "chaos-scattering-form",
            "writing the independent-particle solution through scattering "
            "conjugations gives the same operator",
            1e-9,
            chaos_scattering,
        ),
        Check(
            "chaos-free-vanishing",
            "independent particles develop no correlations without "
            "interactions",
            1e-11,
            chaos_free,
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# group-property


def _suite_group_property() -> list[Check]:
    spec = random_system(404, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(707, 2, 3, norms=0.5)
    rng = rng_from_seed(606)
    pairs = [(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))) for _ in range(10)]

    def make_pair(t1: float, t2: float):
        def run():
            return verify_group_property(spec, g0, t1, t2)

        return run

    checks = [
        Check(
            f"pair-{k}",
            "composing the solution flow over two time steps equals one "
            f"step of their sum (t1={t1:.3f}, t2={t2:.3f})",
            1e-9,
            make_pair(t1, t2),
        )
        for k, (t1, t2) in enumerate(pairs)
    ]

    def zero_time():
        return seq_residual(solve_hierarchy(spec, g0, 0.0).seq, g0.seq)

    def growth():
        worst = -np.inf
        for k in range(10):
            seed_rng = rng_from_seed(770 + k)
            norms = [float(seed_rng.uniform(0.1, 1.5)) for _ in range(4)]
            g = random_correlation_state(880 + k, 2, 4, norms=norms)
            for n in range(1, 5):
                lhs, rhs = verify_growth_bound(spec, g, 1.0, n)
                worst = max(worst, lhs - rhs)
        return float(worst)

    checks += [
        Check(
            "zero-time-exact",
            "at t=0 the solution flow is exactly the identity",
            0.0,
            zero_time,
        ),
        Check(
            "growth-bound",
            "component n of the solution stays below n! e^(2n+1) c^n with c "
            "the largest initial component norm (residual is lhs minus "
            "bound, negative when satisfied)",
            0.0,
            growth,
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# generators


def _suite_generators() -> list[Check]:
    spec = random_system(808, dim_single=2, orders=(2, 3), scale=0.25)
    g0 = random_correlation_state(825, 2, 3, norms=0.5)
    h = 1e-4

    def group_generator():
        labels = ParticleSet.range1(2)
        rng = rng_from_seed(815)
        f = ManyBodyOperator(labels, 2, random_hermitian(rng, 4, 1.0))
        ug = make_unitary_group(spec, labels)
        fd = (group_apply(ug, h, f) - group_apply(ug, -h, f)) * (1.0 / (2 * h))
        ham = build_hamiltonian(spec, labels)
        return trace_norm(fd - liouvillian_apply(ham, f, spec.hbar))

    def hierarchy_generator():
        fd = _fd_sequence(lambda step: solve_hierarchy(spec, g0, step), h)
        gen = nonlinear_generator(spec, g0).seq
        return seq_residual(fd, gen)

    def cluster_generator():
        worst = 0.0
        for blocks in (((1,), (2,)), ((1,), (2, 3))):
            clusters = ClusterSet.of(blocks)
            union = clusters.union
            rng = rng_from_seed(835 + len(union))
            f = ManyBodyOperator(
                union, 2, random_hermitian(rng, 2 ** len(union), 1.0)
            )
            fd = cumulant_generator_fd(spec, clusters, f)
            direct = cluster_interaction_apply(clusters, f, spec)
            worst = max(worst, trace_norm(fd - direct))
        return worst

    def scattering_generator():
        labels = ParticleSet.range1(2)
        rng = rng_from_seed(845)
        f = ManyBodyOperator(labels, 2, random_hermitian(rng, 4, 1.0))
        fd = (
            scattering_operator_apply(spec, h, labels, f)
            - scattering_operator_apply(spec, -h, labels, f)
        ) * (1.0 / (2 * h))
        return trace_norm(fd - scattering_generator_expected(spec, f))

    def weak_form():
        rng = rng_from_seed(855)
        phis = [random_operator(rng, ParticleSet.range1(n), 2) for n in (2, 3)]
        return max(weak_solution_check(spec, phi, g0, 0.4) for phi in phis)

    return [
        Check(
            "group-generator",
            "the time derivative of propagator conjugation is the "
            "commutator generator",
            5e-7,
            group_generator,
        ),
        Check(
            "hierarchy-generator",
            "the time derivative of the solution flow at t=0 matches the "
            "nonlinear right-hand side",
            5e-7,
            hierarchy_generator,
        ),
        Check(
            "cluster-generator",
            "the time derivative of a multi-cluster cumulant at t=0 is the "
            "cluster-interaction generator",
            5e-7,
            cluster_generator,
        ),
        Check(
            "scattering-generator",
            "the time derivative of scattering conjugation at t=0 is the "
            "interaction-only commutator generator",
            5e-7,
            scattering_generator,
        ),
        Check(
            "weak-form",
            "the time derivative of Tr(phi g_n(t)) at t=0.4 matches the "
            "adjoint generators paired with the solution, n = 2 and 3",
            2e-10,
            weak_form,
        ),
    ]


# ---------------------------------------------------------------------------
# star-lemmas


def _suite_star_lemmas() -> list[Check]:
    f = random_sequence(111, 2, 3, norms=0.5)
    h2 = random_sequence(222, 2, 3, norms=0.5)
    small = random_sequence(333, 2, 3, norms=1e-3)
    u = seq_add(unit_sequence(2, 3), f)

    def exp_partition_sum():
        return seq_residual(star_exp(f), literal_cluster_transform(f, signed=False))

    def ln_partition_sum():
        return seq_residual(star_ln(u), literal_cluster_transform(u, signed=True))

    def exp_ln():
        return seq_residual(star_ln(star_exp(f)), f)

    def ln_exp():
        return seq_residual(star_exp(star_ln(u)), u)

    def leibniz():
        prod = star_product(f, h2, out_n_max=6)
        lhs = shift_map(prod, 1)
        rhs = seq_add(
            star_product(shift_map(f, 1), h2, out_n_max=5),
            star_product(f, shift_map(h2, 1), out_n_max=5),
        )
        return seq_residual(lhs, rhs)

    def d_gamma():
        big = star_exp(f, out_n_max=4)
        lhs = shift_map(big, 1)
        rhs = star_product(shift_map(f, 1), big, out_n_max=3)
        return seq_residual(lhs, rhs)

    def reduction_factorization():
        return product_reduction_residual(f, h2)

    def lemma_two():
        return max(verify_lemma2(small, s) for s in (1, 2))

    def lemma_three():
        return verify_lemma3(small)

    return [
        Check(
            "exp-partition-sum",
            "the star exponential equals the sum over set partitions of "
            "block products",
            1e-10,
            exp_partition_sum,
        ),
        Check(
            "ln-partition-sum",
            "the star logarithm equals the Mobius-signed sum over set "
            "partitions of block products",
            1e-10,
            ln_partition_sum,
        ),
        Check(
            "exp-ln-roundtrip",
            "the star logarithm inverts the star exponential",
            1e-10,
            exp_ln,
        ),
        Check(
            "ln-exp-roundtrip",
            "the star exponential inverts the star logarithm",
            1e-10,
            ln_exp,
        ),
        Check(
            "shift-leibniz",
            "the one-slot shift acts as a derivation over the star product",
            1e-10,
            leibniz,
        ),
        Check(
            "shift-of-exponential",
            "shifting a star exponential equals the shifted argument star "
            "the exponential",
            1e-10,
            d_gamma,
        ),
        Check(
            "reduction-factorization",
            "the full reduction scalar of a star product factorizes",
            1e-10,
            reduction_factorization,
        ),
        Check(
            "cluster-reduction-lemma",
            "reducing the shifted exponential and normalizing equals the "
            "reduction of the shifted argument",
            1e-10,
            lemma_two,
        ),
        Check(
            "reduction-exchange-lemma",
            "reduction of a star exponential equals the star exponential "
            "of the reduced argument, after normalization",
            1e-10,
            lemma_three,
        ),
    ]


# ---------------------------------------------------------------------------
# bbgky-triangle


def literal_bbgky_cumulant(spec, f0: MarginalState, s: int, t: float) -> ManyBodyOperator:
    """The cumulant solution formula for F_s(t) term by term, the reference route.

    Term n applies the (1+n)-cluster cumulant, with (1..s) fused as one
    cluster and the traced particles as singletons, to the initial F_{s+n};
    the reduction map then traces those n particles out with weight 1/n!.
    """
    seq = f0.seq
    moved = {}
    for n in range(seq.n_max - s + 1):
        if seq.has(s + n):
            clusters = ClusterSet.cluster_and_singletons(s, n)
            moved[n] = cumulant_apply(spec, t, clusters, seq.components[s + n])
    cumulant_images = OperatorSequence(seq.dim_single, seq.n_max - s, 0.0, moved, s)
    return annihilation_component(cumulant_images, 0)


def _suite_bbgky_triangle() -> list[Check]:
    spec = random_system(909, dim_single=2, orders=(2, 3))
    g0 = random_correlation_state(
        123, 2, 3, norms=0.4, traceless=True, symmetric=True
    )
    d0 = cluster_expand(g0)
    f0 = marginal_state_from_density(d0)

    def make_triangle(s: int):
        def run():
            worst = 0.0
            for t in (0.2, 0.8):
                dt = DensityState(evolve_density_sequence(spec, d0.seq, t))
                gt = solve_hierarchy(spec, g0, t)
                routes = (
                    reduce_from_density(dt, s),
                    solve_bbgky_cumulant(spec, f0, s, t),
                    literal_bbgky_cumulant(spec, f0, s, t),
                    reduce_from_correlations(gt, s),
                )
                for a, b in itertools.combinations(routes, 2):
                    worst = max(worst, trace_norm(a - b))
            return worst

        return run

    checks = [
        Check(
            f"triangle-s{s}",
            f"the four constructions of the {s}-particle marginal at time "
            "t (reduce the evolved density, factorized and literal cumulant "
            "solution formula, reduce the evolved correlations) coincide",
            1e-9,
            make_triangle(s),
        )
        for s in (1, 2)
    ]

    dphys = random_density_state(321, 2, 3, trace_scale=0.8)

    def number_conservation():
        n0 = average_particle_number(marginal_state_from_density(dphys))
        worst = 0.0
        for t in (0.2, 0.8):
            dt = DensityState(evolve_density_sequence(spec, dphys.seq, t))
            nt = average_particle_number(marginal_state_from_density(dt))
            worst = max(worst, abs(nt - n0))
        return worst

    def positivity():
        worst = 0.0
        for t in (0.2, 0.8):
            dt = DensityState(evolve_density_sequence(spec, dphys.seq, t))
            marginals = marginal_state_from_density(dt).seq
            for s in (1, 2, 3):
                low = min_eigenvalue(marginals.component(s))
                worst = max(worst, max(0.0, -low))
        return worst

    checks += [
        Check(
            "particle-number-conservation",
            "the mean particle number read off the one-particle marginal "
            "is constant in time",
            1e-10,
            number_conservation,
        ),
        Check(
            "marginal-positivity",
            "marginals of a physical density sequence stay positive "
            "semidefinite under evolution",
            1e-10,
            positivity,
        ),
    ]
    return checks


# ---------------------------------------------------------------------------
# iteration


def _suite_iteration() -> list[Check]:
    spec = random_system(515, dim_single=2, orders=(2,))
    f0 = marginal_state_from_density(random_density_state(212, 2, 3))
    t = 0.2
    reference = solve_bbgky_cumulant(spec, f0, 1, t)

    def gauss_order2():
        q = QuadratureSpec(2, 32, "gauss-legendre-simplex")
        return trace_norm(solve_bbgky_iteration(spec, f0, 1, t, q) - reference)

    def trapezoid_refinement():
        errs = []
        for nodes in (8, 16, 32):
            q = QuadratureSpec(2, nodes, "nested-trapezoid")
            errs.append(
                trace_norm(solve_bbgky_iteration(spec, f0, 1, t, q) - reference)
            )
        return float(max(errs[1] - errs[0], errs[2] - errs[1]))

    def zero_time():
        q = QuadratureSpec(2, 8, "gauss-legendre-simplex")
        got = solve_bbgky_iteration(spec, f0, 1, 0.0, q)
        return trace_norm(got - f0.seq.component(1))

    return [
        Check(
            "order-2-gauss",
            "the order-2 time-ordered series under 32-node quadrature "
            "matches the cumulant solution",
            1e-5,
            gauss_order2,
        ),
        Check(
            "trapezoid-refinement",
            "quadrature error decreases strictly as nodes go 8 to 16 to 32 "
            "(residual is the largest error increase, negative when "
            "monotone)",
            0.0,
            trapezoid_refinement,
        ),
        Check(
            "zero-time-exact",
            "at t=0 the series returns the initial marginal exactly",
            0.0,
            zero_time,
        ),
    ]


# ---------------------------------------------------------------------------
# observables


def _suite_observables() -> list[Check]:
    spec = random_system(616, dim_single=2, orders=(2, 3))

    def pair_correlation_paths():
        g0 = random_correlation_state(
            414, 2, 3, norms=1e-5, traceless=True, symmetric=True
        )
        gt = solve_hierarchy(spec, g0, 0.4)
        comps = {
            s: reduce_from_correlations(gt, s) for s in (1, 2, 3)
        }
        f = MarginalState(OperatorSequence(2, 3, 1.0, comps))
        worst = 0.0
        for s in (1, 2):
            a = correlation_from_marginals(f, s)
            b = correlation_from_g(gt, s)
            worst = max(worst, trace_norm(a - b))
        return worst

    d0 = random_density_state(432, 2, 3, trace_scale=0.7)
    f_of_d = marginal_state_from_density(d0)
    rng = rng_from_seed(460)
    a1 = random_hermitian(rng, 2, 1.0)

    def dispersion_oracle():
        m1 = additive_observable_moment(d0, a1, 1)
        m2 = additive_observable_moment(d0, a1, 2)
        return abs(additive_dispersion(a1, f_of_d) - (m2 - m1 * m1))

    def mean_number():
        eye = np.eye(2, dtype=complex)
        direct = additive_observable_moment(d0, eye, 1)
        got = average_particle_number(f_of_d)
        worst = abs(got - direct)

        one = random_density_state(470, 2, 1, trace_scale=0.9)
        tr = one.seq.component(1).trace.real
        got1 = average_particle_number(marginal_state_from_density(one))
        worst = max(worst, abs(got1 - tr / (1 + tr)))
        return worst

    def uncorrelated_pair_term():
        f1 = f_of_d.seq.component(1)
        prod = ManyBodyOperator(
            ParticleSet.range1(2), 2, np.kron(f1.matrix, f1.matrix)
        )
        f = MarginalState(OperatorSequence(2, 2, 1.0, {1: f1, 2: prod}))
        got = additive_dispersion(a1, f)
        only_first = np.trace(a1 @ a1 @ f1.matrix).real
        return abs(got - only_first)

    def zero_observable():
        return abs(additive_dispersion(np.zeros((2, 2)), f_of_d))

    def chaos_expansion_paths():
        g1 = chaos_one_particle(543, 2, norm=0.7)
        t = 0.5
        gt = literal_cumulant_solution(spec, chaos_data(g1, 3), t)
        worst = 0.0
        for s in (1, 2):
            a = correlation_chaos_expansion(spec, g1, s, t, 3)
            b = correlation_from_g(gt, s)
            worst = max(worst, trace_norm(a - b))
        return worst

    return [
        Check(
            "pair-correlation-paths",
            "the signed marginal combination and the reduction of the "
            "correlation sequence build the same correlation operators",
            1e-9,
            pair_correlation_paths,
        ),
        Check(
            "dispersion-matches-moments",
            "the two-term dispersion formula equals the second central "
            "moment computed from the density sequence",
            1e-9,
            dispersion_oracle,
        ),
        Check(
            "mean-particle-number",
            "the trace of the one-particle marginal is the mean particle "
            "number of the ensemble",
            1e-10,
            mean_number,
        ),
        Check(
            "uncorrelated-pair-term",
            "for a product two-particle marginal the pair term of the "
            "dispersion vanishes",
            1e-10,
            uncorrelated_pair_term,
        ),
        Check(
            "zero-observable",
            "the dispersion of the zero observable is zero",
            0.0,
            zero_observable,
        ),
        Check(
            "chaos-expansion-paths",
            "for independent initial particles the reduced chaos solution "
            "matches the reduction of the literal cumulant sum",
            1e-9,
            chaos_expansion_paths,
        ),
    ]


_SUITES: dict[str, Callable[[], list[Check]]] = {
    "combinatorics": _suite_combinatorics,
    "group-law": _suite_group_law,
    "cumulant-inversion": _suite_cumulant_inversion,
    "free-cumulants": _suite_free_cumulants,
    "oracle": _suite_oracle,
    "group-property": _suite_group_property,
    "generators": _suite_generators,
    "star-lemmas": _suite_star_lemmas,
    "bbgky-triangle": _suite_bbgky_triangle,
    "iteration": _suite_iteration,
    "observables": _suite_observables,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, tol_scale: float = 1.0, threads: int = 1) -> dict:
    """Execute one suite and return its report as a plain dictionary.

    tol_scale multiplies every tolerance; threads bounds concurrent check
    evaluation.  All checks always run; failures never short-circuit.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}'; valid: {', '.join(SUITE_NAMES)}")
    if tol_scale <= 0:
        raise ValueError("tol-scale must be positive")
    checks = _SUITES[name]()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            residuals = list(pool.map(lambda c: c.fn(), checks))
    else:
        residuals = [c.fn() for c in checks]

    rows = []
    for check, residual in zip(checks, residuals):
        tol = check.tolerance * tol_scale
        rows.append(
            {
                "name": check.name,
                "law": check.law,
                "residual": float(residual),
                "tolerance": tol,
                "pass": bool(residual <= tol),
                "headroom": float(residual) / tol if tol > 0 else None,
            }
        )
    ratios = [r["headroom"] for r in rows if r["headroom"] is not None]
    return {
        "suite": name,
        "checks": rows,
        "n_checks": len(rows),
        "n_failed": sum(1 for r in rows if not r["pass"]),
        "passed": all(r["pass"] for r in rows),
        "tol_scale": tol_scale,
        "max_headroom": max(ratios, default=None),
    }
