"""System specifications, n-particle Hamiltonians, and commutator generators.

A :class:`SystemSpec` holds a one-body Hermitian matrix (the finite
stand-in for a kinetic term) and a family of k-body interaction potentials,
one Hermitian matrix on d^k per declared order k.  From it the module
builds n-particle Hamiltonians

    H_n = sum_i h(i) + sum_k sum_{i_1<...<i_k} Phi^(k)(i_1,...,i_k)

and the interaction generator of the dynamics.  Sign convention, fixed
once: every generator returns the right-hand side of an evolution
equation, i.e. the map

    f  ->  -(i/hbar) (X f - f X)

with X the Hamiltonian (the full Liouvillian, a reference route in
:mod:`qcorr.verify` with the cluster-interaction generator) or an embedded
potential (:func:`interaction_liouvillian_apply`).  Both are
trace-annihilating and preserve Hermiticity of f.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    TAU_HERM,
    ManyBodyOperator,
    check_mb_symmetry,
    embed_sum,
    scaled_hermitian_defect,
)
from .partitions import ParticleSet


@dataclass(eq=False)
class SystemSpec:
    """Single-particle dimension, hbar, one-body term, k-body potentials.

    Instances are compared and hashed by identity so spectral data can be
    cached per spec (see module evolution).
    """

    dim_single: int
    one_body: np.ndarray
    potentials: dict[int, np.ndarray] = field(default_factory=dict)
    hbar: float = 1.0

    def __post_init__(self):
        d = self.dim_single
        if d < 2:
            raise ValueError(f"dim_single must be >= 2, got {d}")
        if self.hbar <= 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")
        ob = np.array(self.one_body, dtype=complex)
        if ob.shape != (d, d):
            raise ValueError(f"one_body must be {d}x{d}, got {ob.shape}")
        _require_hermitian(ob, "one_body")
        ob.setflags(write=False)
        self.one_body = ob
        pots: dict[int, np.ndarray] = {}
        for k, phi in sorted(self.potentials.items()):
            k = int(k)
            if k < 2:
                raise ValueError(f"potential orders start at 2, got {k}")
            m = np.array(phi, dtype=complex)
            dim = d**k
            if m.shape != (dim, dim):
                raise ValueError(
                    f"potential of order {k} must be {dim}x{dim}, got {m.shape}"
                )
            _require_hermitian(m, f"potential[{k}]")
            as_op = ManyBodyOperator(ParticleSet.range1(k), d, m)
            if not check_mb_symmetry(as_op):
                raise ValueError(
                    f"potential[{k}] must be invariant under particle permutations"
                )
            m.setflags(write=False)
            pots[k] = m
        self.potentials = pots


def _require_hermitian(m: np.ndarray, name: str) -> None:
    # ||m - m^dagger||_F <= TAU_HERM max(1, ||m||_F), divided through by c
    dev, norm, c = scaled_hermitian_defect(m)
    if dev > TAU_HERM * max(1.0 / c, norm):
        raise ValueError(f"{name} must be Hermitian, deviation {dev * c}")


def _potential_terms(spec: SystemSpec, labels: ParticleSet) -> list:
    """(k-subset, Phi^(k)) for every declared order k and k-subset of labels."""
    return [
        (combo, phi)
        for k, phi in spec.potentials.items()
        for combo in itertools.combinations(labels.labels, k)
    ]


def build_hamiltonian(spec: SystemSpec, labels: ParticleSet) -> ManyBodyOperator:
    """H on the given labels: one-body terms plus all embedded k-body terms."""
    if len(labels) < 1:
        raise ValueError("a Hamiltonian needs at least one particle")
    d = spec.dim_single
    terms = [((i,), spec.one_body) for i in labels] + _potential_terms(spec, labels)
    return ManyBodyOperator(labels, d, embed_sum(terms, labels, d))


def _commutator_generator(
    x: np.ndarray, f: ManyBodyOperator, hbar: float
) -> ManyBodyOperator:
    m = (-1j / hbar) * (x @ f.matrix - f.matrix @ x)
    return ManyBodyOperator(f.labels, f.dim_single, m)


def interaction_liouvillian_apply(
    phi_k: np.ndarray,
    cluster: ParticleSet,
    f: ManyBodyOperator,
    hbar: float = 1.0,
) -> ManyBodyOperator:
    """RHS interaction generator: +(i/hbar)[f, Phi embedded on cluster]."""
    if not cluster.issubset(f.labels):
        raise ValueError(f"cluster {cluster} not within {f.labels}")
    d = f.dim_single
    phi = np.asarray(phi_k, dtype=complex)
    dim = d ** len(cluster)
    if phi.shape != (dim, dim):
        raise ValueError(
            f"potential shape {phi.shape} does not fit cluster {cluster} (need {dim})"
        )
    return _commutator_generator(embed_sum([(cluster, phi)], f.labels, d), f, hbar)
