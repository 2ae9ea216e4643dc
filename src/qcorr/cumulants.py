"""Cumulants of the evolution groups acting on operators.

The cumulant of order m over a family of disjoint clusters is the signed
partition sum

    sum over partitions P' of the cluster family of
        (-1)^(|P'|-1) (|P'|-1)!  three-dots  product over parts of the
        propagator conjugation on the part's union,

applied to an operand.  Cumulants are always applied as superoperators;
they are never materialized as matrices on the doubled space.  The
all-singletons cluster family gives the plain mth-order cumulant.

Zero time is special: for two or more clusters the coefficients cancel
exactly, so an early-out returns the zero operator without touching any
matrix arithmetic.

The scattering unitary of a block B is W_B(t) = U_B(t) (x)_{k in B} U_k(-t).
Its free factors multiply, for every partition of the operand's labels, to
the same F(-t) = (x)_k U_k(-t), so the scattering cumulant is the propagator
cumulant applied to the freely back-evolved operand F(-t) f F(-t)^*.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CapacityError
from .evolution import group_apply_on_subsets
from .hamiltonian import (
    SystemSpec,
    interaction_hamiltonian,
    liouvillian_apply,
)
from .operators import ManyBodyOperator, trace_norm, zero_operator
from .partitions import (
    ClusterSet,
    ParticleSet,
    enumerate_partitions,
    mobius_coefficient,
    partition_sum,
)

# step of the central differences taken at zero time (error O(FD_STEP^2))
FD_STEP = 1e-4


def cumulant_apply(
    spec: SystemSpec, t: float, clusters: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Apply the cumulant over the clusters at time t to f."""
    if clusters.union != f.labels:
        raise ValueError(
            f"clusters cover {clusters.union} but operand lives on {f.labels}"
        )
    if len(clusters) >= 2 and t == 0.0:
        return zero_operator(f.labels, f.dim_single)
    acc = partition_sum(
        clusters,
        lambda blocks: group_apply_on_subsets(spec, t, blocks, f).matrix,
        signed=True,
    )
    return ManyBodyOperator(f.labels, f.dim_single, acc)


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


def cumulant_generator_fd(
    spec: SystemSpec, clusters: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Central-difference time derivative of the cumulant at zero.

    For two or more clusters this approximates the cluster-interaction
    generator (see hamiltonian.cluster_interaction_apply) with
    O(FD_STEP^2) error.
    """
    if len(clusters) < 2:
        raise ValueError("the generator check needs at least two clusters")
    plus = cumulant_apply(spec, FD_STEP, clusters, f)
    minus = cumulant_apply(spec, -FD_STEP, clusters, f)
    diff = (plus.matrix - minus.matrix) / (2 * FD_STEP)
    return ManyBodyOperator(f.labels, f.dim_single, diff)


def scattering_operator_apply(
    spec: SystemSpec, t: float, labels: ParticleSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate f with the scattering unitary on the labels."""
    if f.labels != labels or f.dim_single != spec.dim_single:
        raise ValueError(f"operand on {f.labels} does not match labels {labels}")
    if t == 0.0:
        return f
    return scattering_cumulant_apply(spec, t, ClusterSet((labels,)), f)


def scattering_cumulant_apply(
    spec: SystemSpec, t: float, clusters: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Cumulant built from scattering operators instead of propagators.

    The propagator cumulant of the freely back-evolved operand (see the
    module docstring).
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
    if f.labels != labels:
        raise ValueError(f"operand on {f.labels} does not match {labels}")
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
