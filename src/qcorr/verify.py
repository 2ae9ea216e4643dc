"""Self-verification suites, and the reference layer they run on.

Each check measures one law and its residual.  A report lists, per check,
the law being exercised, the measured residual, the tolerance, the
verdict, and the headroom residual / tolerance (above 1 fails; null for
exact checks, whose tolerance is 0), plus the report's largest headroom,
so a check drifting towards failure shows before it fails.  All inputs are
seeded, and each suite runs its checks one after another in declaration
order, so reports are identical run to run.

The reference layer holds what only the checks, the tests and the demos
call: the paper's literal formulas (cumulant sums, the chaos solution and
its scattering form, the third route to the marginals, the correlation
operators), the generators of the dynamics, and the check helpers.
`qcorr run` never imports this module.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import exp, factorial
from typing import Callable

import numpy as np

from .bbgky import (
    MarginalState,
    QuadratureSpec,
    additive_dispersion,
    additive_observable_moment,
    average_particle_number,
    marginal_state_from_density,
    reduce_from_density,
    solve_bbgky_cumulant,
    solve_bbgky_iteration,
)
from .cumulants import cumulant_apply
from .errors import CapacityError
from .evolution import (
    evolve_density_sequence,
    group_apply,
    group_apply_on_subsets,
    make_unitary_group,
    unitary_matrix,
)
from .hamiltonian import (
    SystemSpec,
    _commutator_generator,
    _potential_terms,
    build_hamiltonian,
)
from .hierarchy import (
    _componentwise,
    CorrelationState,
    cluster_expand,
    DensityState,
    literal_cluster_transform,
    solve_hierarchy,
    solve_via_density_oracle,
)
from .operators import (
    ManyBodyOperator,
    embed_sum,
    min_eigenvalue,
    relabel,
    tensor_product,
    trace_norm,
)
from .partitions import (
    MAX_PARTITION_GROUND,
    ClusterSet,
    ParticleSet,
    enumerate_partitions,
    mobius_coefficient,
    partition_sum,
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
    _cluster_arguments,
    annihilation_component,
    annihilation_expand,
    annihilation_scalar,
    require_normalizable,
    seq_block_product,
    star_exp,
    star_ln,
    star_product,
)


@dataclass(frozen=True)
class Check:
    name: str
    law: str
    tolerance: float
    fn: Callable[[], float]


# The 9-point central first derivative (Fornberg, Math. Comp. 51, 1988):
# weights of f(t + k h) - f(t - k h) for k = 1..4, exact through degree 8.
_STENCIL = ((1, 4 / 5), (2, -1 / 5), (3, 4 / 105), (4, -1 / 280))
_STENCIL_STEP = 0.01


def derivative(f: Callable[[float], np.ndarray | complex], t: float = 0.0):
    """d/dt f at t, for f returning an ndarray or a complex number.

    The step is fixed at 0.01: on the scale-1 systems of the checks the
    error is then round-off, at most 7e-14, where a step of 0.02 reads up
    to 1.3e-11.
    """
    h = _STENCIL_STEP
    return sum(w * (f(t + k * h) - f(t - k * h)) for k, w in _STENCIL) / h


# ---------------------------------------------------------------------------
# reference layer: subsets, cluster families and partition counts


MAX_SUBSET_GROUND = 16
MAX_STIRLING_N = 20


def enumerate_nonempty_subsets(ground: ParticleSet) -> list[ParticleSet]:
    """All nonempty subsets, ordered by size then lexicographically."""
    if len(ground) > MAX_SUBSET_GROUND:
        raise CapacityError(
            f"subset enumeration capped at {MAX_SUBSET_GROUND} elements, "
            f"got {len(ground)}"
        )
    out = []
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground.labels, size):
            out.append(ParticleSet(combo))
    return out


def cluster_and_singletons(s: int, n: int) -> ClusterSet:
    """The s-cluster (1..s) as one unit, then particles s+1..s+n."""
    return ClusterSet.of([range(1, s + 1)] + [[s + j] for j in range(1, n + 1)])


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind s(n, k), exact integer.

    Counts partitions of an n-element set into exactly k blocks; zero when
    k exceeds n.  Guards: n, k >= 0 and n <= 20.
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 requires n, k >= 0, got n={n}, k={k}")
    if n > MAX_STIRLING_N:
        raise CapacityError(f"stirling2 capped at n={MAX_STIRLING_N}, got {n}")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    return sum(stirling2(n, k) for k in range(n + 1)) if n else 1


def partition_alternating_sum(n: int) -> int:
    """Sum of (-1)^(|P|-1) (|P|-1)! over all set partitions of {1..n}.

    The coefficient depends only on the block count, so the sum runs over
    block counts k, each taken s(n, k) times.  Returns an exact integer,
    which equals 1 for n = 1 and 0 otherwise.
    """
    if not 1 <= n <= MAX_PARTITION_GROUND:
        raise CapacityError(
            f"alternating sum supported for 1 <= n <= {MAX_PARTITION_GROUND}, got {n}"
        )
    return sum(stirling2(n, k) * mobius_coefficient(k) for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# reference layer: generators of the dynamics


def liouvillian_apply(
    h: ManyBodyOperator, f: ManyBodyOperator, hbar: float = 1.0
) -> ManyBodyOperator:
    """RHS generator of the full evolution: -(i/hbar)(H f - f H)."""
    if h.labels != f.labels or h.dim_single != f.dim_single:
        raise ValueError(f"H on {h.labels} cannot act on f over {f.labels}")
    return _commutator_generator(h.matrix, f, hbar)


def cluster_interaction_apply(
    blocks: ClusterSet, f: ManyBodyOperator, spec: SystemSpec
) -> ManyBodyOperator:
    """Interaction generator coupling the blocks of a cluster set.

    Sums, over every choice of one nonempty subset Z_r from each block, the
    interaction generator with the potential of order sum_r |Z_r| embedded
    on the union of the chosen subsets.  Choices whose total order has no
    declared potential contribute zero.  All chosen potentials are
    accumulated first so only a single commutator is formed.
    """
    if len(blocks) < 2:
        raise ValueError("cluster interaction needs at least two blocks")
    if blocks.union != f.labels:
        raise ValueError(
            f"blocks cover {blocks.union} but the operand lives on {f.labels}"
        )
    terms = []
    for combo in itertools.product(*(enumerate_nonempty_subsets(b) for b in blocks)):
        phi = spec.potentials.get(sum(len(z) for z in combo))
        if phi is not None:
            terms.append((sorted(itertools.chain(*combo)), phi))
    return _commutator_generator(embed_sum(terms, f.labels, f.dim_single), f, spec.hbar)


def interaction_hamiltonian(spec: SystemSpec, labels: ParticleSet) -> ManyBodyOperator:
    """The interaction part of H alone: sum of all embedded potentials."""
    d = spec.dim_single
    return ManyBodyOperator(labels, d, embed_sum(_potential_terms(spec, labels), labels, d))


# ---------------------------------------------------------------------------
# reference layer: cumulant checks


def cumulant_vanishes_free(
    spec: SystemSpec, n: int, f: ManyBodyOperator, t: float
) -> float:
    """Trace norm of the nth-order cumulant on f for a noninteracting system.

    Must come out at numerical zero: without interactions the propagators
    factorize over particles and the signed partition coefficients cancel.
    """
    if spec.potentials:
        raise ValueError("this check is defined for interaction-free systems")
    if n < 2:
        raise ValueError("vanishing concerns orders n >= 2")
    if len(f.labels) != n:
        raise ValueError(f"operand must live on {n} particles, got {f.labels}")
    return trace_norm(cumulant_apply(spec, t, ClusterSet.singletons(f.labels), f))


def scattering_operator_apply(
    spec: SystemSpec, t: float, labels: ParticleSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate f with the scattering unitary U_L(t) (x)_{k in L} U_k(-t)."""
    free_back = group_apply_on_subsets(spec, -t, ClusterSet.singletons(labels), f)
    return group_apply_on_subsets(spec, t, ClusterSet((labels,)), free_back)


def scattering_cumulant_apply(
    spec: SystemSpec, t: float, clusters: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Cumulant built from scattering operators instead of propagators.

    The scattering unitary of a block B is W_B(t) = U_B(t) (x)_{k in B}
    U_k(-t).  Its free factors multiply, for every partition of the
    operand's labels, to the same F(-t) = (x)_k U_k(-t), so the scattering
    cumulant is the propagator cumulant of the freely back-evolved operand
    F(-t) f F(-t)^*.
    """
    free_back = group_apply_on_subsets(spec, -t, ClusterSet.singletons(f.labels), f)
    return cumulant_apply(spec, t, clusters, free_back)


def scattering_generator_expected(
    spec: SystemSpec, f: ManyBodyOperator
) -> ManyBodyOperator:
    """The t-derivative the scattering conjugation must have at zero.

    Equals the sum of interaction generators over every potential-carrying
    particle subset, i.e. the full generator minus its free part.
    """
    v = interaction_hamiltonian(spec, f.labels)
    return liouvillian_apply(v, f, spec.hbar)


def recover_group_from_cumulants(
    spec: SystemSpec, t: float, labels: ParticleSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Rebuild the full propagator conjugation from cumulants.

    Sums over partitions the products of per-block cumulants; each block's
    cumulant expands into its own signed partition sum, so the whole is a
    double partition sum of blockwise conjugations.  Must reproduce
    group_apply on the same labels.
    """
    if len(labels) > 4:
        raise CapacityError("group recovery supported for up to 4 particles")
    acc = np.zeros_like(f.matrix)
    for p in enumerate_partitions(labels):
        per_block = [enumerate_partitions(block) for block in p]
        for combo in itertools.product(*per_block):
            coeff = 1
            sub_blocks = []
            for q in combo:
                coeff *= mobius_coefficient(len(q))
                sub_blocks.extend(q)
            blocks = ClusterSet(tuple(sub_blocks))
            term = group_apply_on_subsets(spec, t, blocks, f).matrix * coeff
            acc = acc + term
    return ManyBodyOperator(f.labels, f.dim_single, acc)


# ---------------------------------------------------------------------------
# reference layer: sequence algebra


def seq_add(f: OperatorSequence, h: OperatorSequence) -> OperatorSequence:
    if f.dim_single != h.dim_single or f.prefix != h.prefix:
        raise ValueError("sequences are not compatible for addition")
    n_max = max(f.n_max, h.n_max)
    comps: dict[int, ManyBodyOperator] = {}
    for n in sorted(set(f.support) | set(h.support)):
        if f.has(n) and h.has(n):
            comps[n] = f.components[n] + h.components[n]
        elif f.has(n):
            comps[n] = f.components[n]
        else:
            comps[n] = h.components[n]
    return OperatorSequence(f.dim_single, n_max, f.scalar0 + h.scalar0, comps, f.prefix)


def seq_residual(f: OperatorSequence, h: OperatorSequence) -> float:
    """Largest componentwise trace-norm difference up to the shorter cutoff."""
    if f.dim_single != h.dim_single or f.prefix != h.prefix:
        raise ValueError("sequences are not comparable")
    worst = abs(f.scalar0 - h.scalar0)
    lo = 0 if f.prefix else 1
    for n in range(lo, min(f.n_max, h.n_max) + 1):
        worst = max(worst, trace_norm(f.component(n) - h.component(n)))
    return float(worst)


def shift_map(f: OperatorSequence, s: int) -> OperatorSequence:
    """Drop the first s particles into a frozen prefix.

    Component n of the result is component s+n of f on unchanged labels;
    component 0 is f_s itself, now an operator rather than a scalar.
    """
    if f.prefix:
        raise ValueError("sequence already carries a prefix")
    if s < 1:
        raise ValueError(f"shift size must be >= 1, got {s}")
    if s > f.n_max:
        raise ValueError(f"shift by {s} exceeds the cutoff {f.n_max}")
    comps = {n - s: op for n, op in f.components.items() if n >= s}
    return OperatorSequence(f.dim_single, f.n_max - s, 0.0, comps, s)


def cluster_argument_sequence(
    f: OperatorSequence, s: int, n_max: int
) -> OperatorSequence:
    """Correlations of the plain sequence f whose first argument is the s-cluster.

    Component n (n = 0..n_max) of the s-prefixed result is the Mobius-signed
    partition sum over the units {the cluster (1..s), particle s+1, ...,
    particle s+n} of products of f's components; component 0 is f_s.  Read
    off the recursion in :mod:`qcorr.star_algebra`; a component with no
    term is the zero operator.
    """
    d = f.dim_single
    kappa = _cluster_arguments(f, s, n_max)
    for n in range(n_max + 1):
        kappa.setdefault(n, np.zeros((d ** (s + n),) * 2, dtype=complex))
    comps = {n: ManyBodyOperator(ParticleSet.range1(s + n), d, m) for n, m in kappa.items()}
    return OperatorSequence(d, n_max, 0.0, comps, s)


def product_reduction_residual(f: OperatorSequence, h: OperatorSequence) -> float:
    """Defect of the reduction scalar factorizing over a star product.

    The product is taken out to the full joint support so the identity is
    exact up to round-off.
    """
    full = star_product(f, h, out_n_max=f.n_max + h.n_max)
    lhs = annihilation_scalar(full)
    rhs = annihilation_scalar(f) * annihilation_scalar(h)
    return abs(lhs - rhs)


def verify_lemma2(f: OperatorSequence, s: int, depth: int = 8) -> float:
    """Residual of the normalized-reduction identity for an s-cluster.

    The left side reduces the exponential of f with its first s particles
    frozen as one unit, normalized by the reduction scalar of the
    exponential.  The right side reduces the cluster-argument components
    of the exponential (:func:`cluster_argument_sequence`); for s = 1 they
    collapse back to f itself.  The exponential is evaluated out to
    ``depth`` components so the neglected tail sits far below the
    comparison floor for small-amplitude inputs.
    """
    if f.prefix or f.scalar0 != 0:
        raise ValueError("expects a plain sequence with zero scalar component")
    if s < 1 or s > f.n_max:
        raise ValueError(f"cluster size {s} outside [1, {f.n_max}]")
    big = star_exp(f, out_n_max=max(depth, f.n_max))
    denom = require_normalizable(annihilation_scalar(big))
    num = annihilation_component(shift_map(big, s), 0)
    # the plain shift of f is NOT its cluster reading once s >= 2: shifted
    # products would split the cluster across factors.  Build the cluster
    # components from the exponential instead.  Nonzero ones stop at
    # n = s*(f.n_max - 1): every block linking a singleton to the cluster
    # holds a cluster particle, and past that the Mobius sums cancel.
    n_hi = min(big.n_max - s, s * (f.n_max - 1))
    rhs = annihilation_component(cluster_argument_sequence(big, s, n_hi), 0)
    return trace_norm(num / denom - rhs)


def verify_lemma3(f: OperatorSequence, depth: int = 8) -> float:
    """Residual of the exponential-reduction exchange identity.

    The normalized reduction of the exponential of f is compared against
    the exponential of the reduction of f (scalar part dropped; it is the
    normalization).  Componentwise up to f.n_max.
    """
    if f.prefix or f.scalar0 != 0:
        raise ValueError("expects a plain sequence with zero scalar component")
    big = star_exp(f, out_n_max=max(depth, f.n_max))
    lhs_all = annihilation_expand(big)
    denom = require_normalizable(lhs_all.scalar0)
    red = annihilation_expand(f)
    red_centered = OperatorSequence(
        f.dim_single, f.n_max, 0.0,
        {n: op for n, op in red.components.items() if n <= f.n_max},
    )
    rhs = star_exp(red_centered, out_n_max=f.n_max)
    worst = 0.0
    for n in range(1, f.n_max + 1):
        worst = max(
            worst, trace_norm(lhs_all.component(n) / denom - rhs.component(n))
        )
    return worst


# ---------------------------------------------------------------------------
# reference layer: the correlation hierarchy


def chaos_data(g1_0: ManyBodyOperator, n_max: int) -> CorrelationState:
    """Initial correlations (g1_0, 0, 0, ...) of independent particles."""
    if len(g1_0.labels) != 1:
        raise ValueError("chaos data is a one-particle operator")
    g1 = relabel(g1_0, ParticleSet.range1(1))
    return CorrelationState(OperatorSequence(g1.dim_single, n_max, 0.0, {1: g1}))


def solve_chaos(
    spec: SystemSpec, g1_0: ManyBodyOperator, n: int, t: float
) -> ManyBodyOperator:
    """Correlation component n for initial data with independent particles.

    The nth-order cumulant applied to the n-fold product of the one-particle
    component: component n of the solution on :func:`chaos_data`.
    """
    return solve_hierarchy(spec, chaos_data(g1_0, n), t).seq.component(n)


def solve_chaos_scattering_form(
    spec: SystemSpec, g1_0: ManyBodyOperator, n: int, t: float
) -> ManyBodyOperator:
    """Chaos solution written through scattering-operator cumulants.

    The operand carries freely evolved one-particle components at time t;
    the scattering cumulant supplies the rest.  Agrees with solve_chaos.
    """
    if n < 2:
        raise ValueError("the scattering form is stated for n >= 2")
    g1 = chaos_data(g1_0, n).seq.components[1]
    g1_t = group_apply(make_unitary_group(spec, g1.labels), t, g1)
    ground = ParticleSet.range1(n)
    operand = tensor_product([relabel(g1_t, ParticleSet((i,))) for i in ground])
    return scattering_cumulant_apply(
        spec, t, ClusterSet.singletons(ground), operand
    )


def nonlinear_generator(spec: SystemSpec, g: CorrelationState) -> CorrelationState:
    """Right-hand side of the evolution equations for the correlation sequence.

    Component n: the full commutator generator on g_n plus, for every
    partition with at least two blocks, the cluster-interaction generator
    applied to the product of g-blocks.
    """
    seq = g.seq

    def term(blocks: ClusterSet) -> ManyBodyOperator | None:
        operand = seq_block_product(seq, blocks)
        if operand is None:
            return None
        if len(blocks) == 1:
            h = build_hamiltonian(spec, operand.labels)
            return liouvillian_apply(h, operand, spec.hbar)
        return cluster_interaction_apply(blocks, operand, spec)

    comps = _componentwise(seq, term, signed=False)
    return CorrelationState(OperatorSequence(seq.dim_single, seq.n_max, 0.0, comps))


def verify_group_property(
    spec: SystemSpec, g: CorrelationState, t1: float, t2: float
) -> float:
    """Largest componentwise defect of composing solutions versus one step."""
    if abs(t1) > 2 or abs(t2) > 2:
        raise ValueError("group-property check wants |t| <= 2")
    one_shot = solve_hierarchy(spec, g, t1 + t2)
    via_t2 = solve_hierarchy(spec, solve_hierarchy(spec, g, t2), t1)
    via_t1 = solve_hierarchy(spec, solve_hierarchy(spec, g, t1), t2)
    return max(
        seq_residual(via_t2.seq, one_shot.seq),
        seq_residual(via_t1.seq, one_shot.seq),
    )


def verify_growth_bound(
    spec: SystemSpec, g: CorrelationState, t: float, n: int
) -> tuple[float, float]:
    """Trace norm of solution component n against n! e^(2n+1) c^n.

    c is the largest trace norm among the initial components that can occur
    as a block, i.e. orders 1..n.
    """
    if n > 4:
        raise ValueError("bound check supported for n <= 4")
    sol = solve_hierarchy(spec, g, t)
    lhs = trace_norm(sol.seq.component(n))
    c = max(trace_norm(g.seq.component(k)) for k in range(1, n + 1))
    rhs = factorial(n) * exp(2 * n + 1) * c**n
    return lhs, rhs


def _pair_trace(a: ManyBodyOperator, b: ManyBodyOperator) -> complex:
    return complex(np.trace(a.matrix @ b.matrix))


def weak_solution_check(
    spec: SystemSpec,
    phi_n: ManyBodyOperator,
    g0: CorrelationState,
    t: float,
) -> float:
    """Defect of the weak form of the evolution equation on a test operator.

    The time derivative of Tr(phi g_n(t)), taken with :func:`derivative`,
    is compared with the adjoint-generator expression evaluated at t: the
    generators move onto phi with a sign flip under the trace pairing.
    """
    n = len(phi_n.labels)
    if n > 3:
        raise ValueError("weak-form check supported for up to 3 particles")
    ground = ParticleSet.range1(n)
    if phi_n.labels != ground:
        raise ValueError(f"test operator must live on {ground}")

    lhs = derivative(
        lambda tau: _pair_trace(phi_n, solve_hierarchy(spec, g0, tau).seq.component(n)),
        t,
    )

    gt = solve_hierarchy(spec, g0, t)

    def term(blocks: ClusterSet) -> complex | None:
        if len(blocks) == 1:
            hmat = build_hamiltonian(spec, ground)
            moved = -liouvillian_apply(hmat, phi_n, spec.hbar)
            return _pair_trace(moved, gt.seq.component(n))
        operand = seq_block_product(gt.seq, blocks)
        if operand is None:
            return None
        moved = -cluster_interaction_apply(blocks, phi_n, spec)
        return _pair_trace(moved, operand)

    rhs = partition_sum(ClusterSet.singletons(ground), term, signed=False)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# reference layer: reduced operators


def reduce_from_correlations(g: CorrelationState, s: int) -> ManyBodyOperator:
    """F_s from the correlation side: traced cluster-argument correlations.

    No normalization scalar appears; it is built into this representation.
    """
    seq = g.seq
    if not 1 <= s <= seq.n_max:
        raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    args = cluster_argument_sequence(cluster_expand(g).seq, s, seq.n_max - s)
    return annihilation_component(args, 0)


def correlation_from_marginals(f: MarginalState, s: int) -> ManyBodyOperator:
    """G_s as the signed partition combination of marginal products.

    That is component s of the star logarithm of the marginal sequence.
    """
    seq = f.seq
    if not 1 <= s <= seq.n_max:
        raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    return star_ln(seq, out_n_max=s).component(s)


def correlation_from_g(g: CorrelationState, s: int) -> ManyBodyOperator:
    """G_s as the reduction of the correlation sequence itself."""
    if not 1 <= s <= g.seq.n_max:
        raise ValueError(f"s must be in [1, {g.seq.n_max}], got {s}")
    return annihilation_component(g.seq, s)


def correlation_chaos_expansion(
    spec: SystemSpec,
    g1_0: ManyBodyOperator,
    s: int,
    t: float,
    n_max: int,
) -> ManyBodyOperator:
    """G_s(t) for independent initial particles: the reduced chaos solution.

    Term n of the paper's cumulant expansion is chaos component s+n traced
    with weight 1/n!.
    """
    sol = solve_hierarchy(spec, chaos_data(g1_0, n_max), t)
    return correlation_from_g(sol, s)


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

    def group_generator():
        labels = ParticleSet.range1(2)
        rng = rng_from_seed(815)
        f = ManyBodyOperator(labels, 2, random_hermitian(rng, 4, 1.0))
        ug = make_unitary_group(spec, labels)
        fd = derivative(lambda t: group_apply(ug, t, f).matrix)
        want = liouvillian_apply(build_hamiltonian(spec, labels), f, spec.hbar)
        return trace_norm(ManyBodyOperator(labels, 2, fd) - want)

    def hierarchy_generator():
        fd = {
            n: ManyBodyOperator(
                ParticleSet.range1(n),
                2,
                derivative(lambda t: solve_hierarchy(spec, g0, t).seq.component(n).matrix),
            )
            for n in range(1, g0.seq.n_max + 1)
        }
        fd_seq = OperatorSequence(2, g0.seq.n_max, 0.0, fd)
        return seq_residual(fd_seq, nonlinear_generator(spec, g0).seq)

    def cluster_generator():
        worst = 0.0
        for blocks in (((1,), (2,)), ((1,), (2, 3))):
            clusters = ClusterSet.of(blocks)
            union = clusters.union
            rng = rng_from_seed(835 + len(union))
            f = ManyBodyOperator(
                union, 2, random_hermitian(rng, 2 ** len(union), 1.0)
            )
            fd = derivative(lambda t: cumulant_apply(spec, t, clusters, f).matrix)
            direct = cluster_interaction_apply(clusters, f, spec)
            worst = max(worst, trace_norm(ManyBodyOperator(union, 2, fd) - direct))
        return worst

    def scattering_generator():
        labels = ParticleSet.range1(2)
        rng = rng_from_seed(845)
        f = ManyBodyOperator(labels, 2, random_hermitian(rng, 4, 1.0))
        fd = derivative(lambda t: scattering_operator_apply(spec, t, labels, f).matrix)
        want = scattering_generator_expected(spec, f)
        return trace_norm(ManyBodyOperator(labels, 2, fd) - want)

    def weak_form():
        rng = rng_from_seed(855)
        phis = [random_operator(rng, ParticleSet.range1(n), 2) for n in (2, 3)]
        return max(weak_solution_check(spec, phi, g0, 0.4) for phi in phis)

    return [
        Check(
            "group-generator",
            "the time derivative of propagator conjugation is the "
            "commutator generator",
            1e-12,
            group_generator,
        ),
        Check(
            "hierarchy-generator",
            "the time derivative of the solution flow at t=0 matches the "
            "nonlinear right-hand side",
            1e-12,
            hierarchy_generator,
        ),
        Check(
            "cluster-generator",
            "the time derivative of a multi-cluster cumulant at t=0 is the "
            "cluster-interaction generator",
            1e-12,
            cluster_generator,
        ),
        Check(
            "scattering-generator",
            "the time derivative of scattering conjugation at t=0 is the "
            "interaction-only commutator generator",
            1e-12,
            scattering_generator,
        ),
        Check(
            "weak-form",
            "the time derivative of Tr(phi g_n(t)) at t=0.4 matches the "
            "adjoint generators paired with the solution, n = 2 and 3",
            1e-13,
            weak_form,
        ),
    ]


# ---------------------------------------------------------------------------
# star-lemmas


def _suite_star_lemmas() -> list[Check]:
    f = random_sequence(111, 2, 3, norms=0.5)
    h2 = random_sequence(222, 2, 3, norms=0.5)
    small = random_sequence(333, 2, 3, norms=1e-3)
    u = seq_add(OperatorSequence(2, 3, 1.0), f)

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
            clusters = cluster_and_singletons(s, n)
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
        q = QuadratureSpec(2, 32)
        return trace_norm(solve_bbgky_iteration(spec, f0, [1], t, q)[1] - reference)

    def gauss_refinement():
        # at t = 0.2 the error is at round-off from 5 nodes on; at t = 2 it
        # still falls by an order of magnitude or more from count to count
        late = solve_bbgky_cumulant(spec, f0, 1, 2.0)
        errs = []
        for nodes in (4, 5, 6, 8):
            q = QuadratureSpec(2, nodes)
            errs.append(trace_norm(solve_bbgky_iteration(spec, f0, [1], 2.0, q)[1] - late))
        return float(max(b - a for a, b in zip(errs, errs[1:])))

    def zero_time():
        q = QuadratureSpec(2, 8)
        got = solve_bbgky_iteration(spec, f0, [1], 0.0, q)[1]
        return trace_norm(got - f0.seq.component(1))

    return [
        Check(
            "order-2-gauss",
            "the order-2 time-ordered series under 32-node quadrature "
            "matches the cumulant solution",
            1e-12,
            gauss_order2,
        ),
        Check(
            "gauss-refinement",
            "at t=2 the quadrature error decreases strictly as nodes go 4 to "
            "5 to 6 to 8 (residual is the largest error increase, negative "
            "when monotone)",
            0.0,
            gauss_refinement,
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


def run_suite(name: str) -> dict:
    """Execute one suite and return its report as a plain dictionary.

    All checks always run; failures never short-circuit.
    """
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}'; valid: {', '.join(SUITE_NAMES)}")
    rows = []
    for check in _SUITES[name]():
        residual, tol = check.fn(), check.tolerance
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
        "max_headroom": max(ratios, default=None),
    }
