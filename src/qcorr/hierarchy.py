"""Correlation-operator dynamics: cluster transforms and solution formulas.

The density sequence D and the correlation sequence g determine each other
through sums over set partitions, D = Exp(g) and g = Ln(D) under the star
product, both evaluated by the first-block recursion of
:mod:`qcorr.star_algebra`.  Time evolution closes on the density side: each
component D_n evolves under its own n-particle propagator, so the paper's
solution formula,

    g_n(t) = sum over partitions P of (1..n) of
             (cumulant over the blocks of P at time t)(product of g_|B|),

is computed as g(t) = Ln(U(t) Exp(g) U(t)^*), one conjugation per particle
number (:func:`solve_hierarchy`).  At t = 0 the solver returns g itself,
not the round-off image Ln(Exp(g)).  The literal per-partition cumulant sum
is kept as a reference route in :mod:`qcorr.verify`.

:func:`solve_via_density_oracle` is the literal route to the same answer:
Exp and Ln as the paper's partition sums (:func:`literal_cluster_transform`)
around the same componentwise evolution.  It shares only the propagator
with the solver, which the group-law checks compare with numpy.

The chaos solution (:func:`solve_chaos`), the nth-order cumulant on the
n-fold product of g_1, is the solver on the product data (g_1, 0, 0, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, factorial

import numpy as np

from .cumulants import FD_STEP, scattering_cumulant_apply
from .evolution import evolve_density_sequence, group_apply, make_unitary_group
from .hamiltonian import (
    SystemSpec,
    build_hamiltonian,
    cluster_interaction_apply,
    liouvillian_apply,
)
from .operators import ManyBodyOperator, relabel, tensor_product, trace_norm
from .partitions import ClusterSet, ParticleSet, partition_sum
from .star_algebra import (
    OperatorSequence,
    seq_block_product,
    seq_residual,
    star_exp,
    star_ln,
)


@dataclass(frozen=True)
class CorrelationState:
    """Sequence (0, g_1, g_2, ...) of correlation operators."""

    seq: OperatorSequence

    def __post_init__(self):
        if self.seq.prefix != 0:
            raise ValueError("correlation states are plain sequences")
        if self.seq.scalar0 != 0:
            raise ValueError("a correlation sequence has scalar component 0")


@dataclass(frozen=True)
class DensityState:
    """Sequence (1, D_1, D_2, ...) of density components."""

    seq: OperatorSequence

    def __post_init__(self):
        if self.seq.prefix != 0:
            raise ValueError("density states are plain sequences")
        if self.seq.scalar0 != 1:
            raise ValueError("a density sequence has scalar component 1")


def _componentwise(
    seq: OperatorSequence, term, signed: bool
) -> dict[int, ManyBodyOperator]:
    """Component n: partition_sum over the singletons of (1..n), if nonempty."""
    comps = {}
    for n in range(1, seq.n_max + 1):
        total = partition_sum(ClusterSet.singletons(range(1, n + 1)), term, signed)
        if total is not None:
            comps[n] = total
    return comps


def cluster_expand(g: CorrelationState) -> DensityState:
    """Density components as partition sums of correlation products: Exp(g)."""
    return DensityState(star_exp(g.seq))


def cluster_invert(d: DensityState) -> CorrelationState:
    """Correlation components by signed partition sums of density products: Ln(D)."""
    return CorrelationState(star_ln(d.seq))


def solve_hierarchy(
    spec: SystemSpec, g0: CorrelationState, t: float
) -> CorrelationState:
    """Correlation sequence at time t from initial data g0.

    Expand to the density sequence, conjugate each component with its
    propagator, invert: Ln(U(t) Exp(g0) U(t)^*), n_max conjugations.  At
    t = 0 this returns g0 itself, exactly.
    """
    if t == 0.0:
        return g0
    dt = evolve_density_sequence(spec, cluster_expand(g0).seq, t)
    return cluster_invert(DensityState(dt))


def literal_cluster_transform(seq: OperatorSequence, signed: bool) -> OperatorSequence:
    """The reference route for Exp(seq), or for Ln(seq) when ``signed``.

    Component n sums, over the partitions of (1..n), the product of seq's
    block components, weighted by the Mobius coefficient when ``signed``;
    it is absent when no partition has all its blocks in seq.
    """
    comps = _componentwise(seq, lambda b: seq_block_product(seq, b), signed)
    scalar = 0.0 if signed else 1.0
    return OperatorSequence(seq.dim_single, seq.n_max, scalar, comps)


def solve_via_density_oracle(
    spec: SystemSpec, g0: CorrelationState, t: float
) -> CorrelationState:
    """Literal route: partition-sum Exp, evolve each component, partition-sum Ln.

    Independent of the star recursion behind :func:`solve_hierarchy`; the
    two share only :func:`qcorr.evolution.evolve_density_sequence`.
    """
    d0 = literal_cluster_transform(g0.seq, signed=False)
    dt = evolve_density_sequence(spec, d0, t)
    return CorrelationState(literal_cluster_transform(dt, signed=True))


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

    The time derivative of Tr(phi g_n(t)) by central differences (step
    ``FD_STEP``) is compared with the adjoint-generator expression
    evaluated at t: the generators move onto phi with a sign flip under
    the trace pairing.
    """
    n = len(phi_n.labels)
    if n > 3:
        raise ValueError("weak-form check supported for up to 3 particles")
    ground = ParticleSet.range1(n)
    if phi_n.labels != ground:
        raise ValueError(f"test operator must live on {ground}")

    plus = solve_hierarchy(spec, g0, t + FD_STEP).seq.component(n)
    minus = solve_hierarchy(spec, g0, t - FD_STEP).seq.component(n)
    lhs = (_pair_trace(phi_n, plus) - _pair_trace(phi_n, minus)) / (2 * FD_STEP)

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
