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

The checks built on cumulants (vanishing without interactions, the
generator at zero time, scattering cumulants, the recovery of the group)
are reference routes in :mod:`qcorr.verify`.
"""

from __future__ import annotations

from .evolution import group_apply_on_subsets
from .hamiltonian import SystemSpec
from .operators import ManyBodyOperator, zero_operator
from .partitions import ClusterSet, partition_sum


def cumulant_apply(
    spec: SystemSpec, t: float, clusters: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Apply the cumulant over the clusters at time t to f."""
    if clusters.union != f.labels or f.dim_single != spec.dim_single:
        raise ValueError(
            f"clusters cover {clusters.union} with d = {spec.dim_single} but the "
            f"operand lives on {f.labels} with d = {f.dim_single}"
        )
    if len(clusters) >= 2 and t == 0.0:
        return zero_operator(f.labels, f.dim_single)
    acc = partition_sum(
        clusters,
        lambda blocks: group_apply_on_subsets(spec, t, blocks, f).matrix,
        signed=True,
    )
    return ManyBodyOperator(f.labels, f.dim_single, acc)
