"""Correlation-operator dynamics: cluster transforms and solution formulas.

The density sequence D and the correlation sequence g determine each other
through sums over set partitions, D = Exp(g) and g = Ln(D) under the star
product, both evaluated by the first-block recursion of
:mod:`qcorr.star_algebra`.  Time evolution closes on the density side: each
component D_n evolves under its own n-particle propagator, so the paper's
solution formula,

    g_n(t) = sum over partitions P of (1..n) of
             (cumulant over the blocks of P at time t)(product of g_|B|),

is computed as g(t) = Ln(U(t) Exp(g) U(t)^*), one eigenbasis evolution per
particle number (:func:`solve_hierarchy`).  At t = 0 the solver returns g itself,
not the round-off image Ln(Exp(g)).  `qcorr run` writes the same formula as
:func:`cluster_invert` of the density flow it shares with its other tasks,
under the same t = 0 rule.  The literal per-partition cumulant sum is kept
as a reference route in :mod:`qcorr.verify`.

:func:`solve_via_density_oracle` is the literal route to the same answer:
Exp and Ln as the paper's partition sums (:func:`literal_cluster_transform`)
around the same componentwise evolution.  It shares only the propagator
with the solver, which the group-law checks hold to the group laws and the
test ``test_swap_blocks_diagonalize_h_n_as_eigh_does`` to numpy's ``eigh``.

The chaos solution, the generator of the hierarchy and its checks are
reference routes in :mod:`qcorr.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evolution import evolve_density_sequence
from .hamiltonian import SystemSpec
from .operators import ManyBodyOperator
from .partitions import ClusterSet, partition_sum
from .star_algebra import OperatorSequence, seq_block_product, star_exp, star_ln


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


def solve_hierarchy(spec: SystemSpec, g0: CorrelationState, t: float) -> CorrelationState:
    """Correlation sequence at time t from initial data g0.

    Expand to the density sequence, evolve each component in the eigenbasis
    of its Hamiltonian, invert: Ln(U(t) Exp(g0) U(t)^*).  At t = 0 this
    returns g0 itself, exactly.
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
