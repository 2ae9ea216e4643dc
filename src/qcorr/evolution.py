"""Unitary one-parameter groups and their conjugation action on operators.

The propagator is computed by Hermitian eigendecomposition, so unitarity
is exact up to round-off and any time is reachable in one shot.  H_n of
identical particles commutes with every particle permutation, so it is
diagonalized in the blocks of the pair swaps (1 2), (3 4), ...
(:func:`qcorr.operators.swap_block_eigh`; 100, 60, 60 and 36 at d = 4,
n = 4, in place of one of 256), and whole when an explicit potential leaves
it asymmetric beyond round-off.  The spectral data is cached per system,
for label sets and for block families (whose H_P = sum_B H_B takes its
spectral data from the blocks' own):
cumulant sums revisit the same groups across many partitions, and must not
pay for repeated eigendecompositions.  Propagators and density flows take
their time dependence from one place, the phases p = exp(-(i/hbar) t lambda)
of :func:`phases`.

A density sequence evolves in the eigenbasis (:class:`DensityFlow`): each
component moves there once, as D~ = V^* D V, and D(t) = V (P o D~) V^*
with P = p p^*, two D^3 products per time and no unitary build.  Any
other operand is conjugated by :func:`_conjugate`, the one place U x U^*
is written, with U = ``unitary_matrix(ug, t)`` built on every call: three
D^3 products.  Nothing but the spectral cache is kept from one call to the
next.  The iteration series' top level needs only a traced product
(:func:`qcorr.bbgky._top_commutator`).

Time convention: ``unitary_matrix(ug, t)`` is exp(-(i/hbar) t H), and
``group_apply(ug, t, f)`` conjugates f with it.  The t-derivative of
``group_apply`` at 0 is therefore exactly the full Liouvillian RHS
generator -(i/hbar)[H, f] (``verify.liouvillian_apply``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hamiltonian import SystemSpec, build_hamiltonian
from .operators import ManyBodyOperator, swap_block_eigh
from .partitions import ClusterSet, ParticleSet
from .star_algebra import OperatorSequence


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Spectral data of H on a label set, ready to exponentiate at any t."""

    labels: ParticleSet
    dim_single: int
    hbar: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


_CACHE: "weakref.WeakKeyDictionary[SystemSpec, dict]" = weakref.WeakKeyDictionary()


def make_unitary_group(spec: SystemSpec, labels: ParticleSet) -> UnitaryGroup:
    """Diagonalize H on the labels, reusing cached spectral data per spec."""
    return _family_group(spec, (labels,))


def _family_group(spec: SystemSpec, blocks: tuple) -> UnitaryGroup:
    """The group of sum_B H_B on the union of the blocks, cached per spec.

    One block is diagonalized by :func:`qcorr.operators.swap_block_eigh`,
    in the blocks of its pair swaps when H is exchange-symmetric.  Several
    take the Kronecker sum of the blocks' eigenvalues and the Kronecker
    product of their eigenvectors, rows in label order.
    """
    key = tuple(b.labels for b in blocks)
    cache = _CACHE.setdefault(spec, {})
    if key in cache:
        return cache[key]
    slots = sum(key, ())
    if len(key) == 1:
        h = build_hamiltonian(spec, blocks[0]).matrix
        lam, v = swap_block_eigh(h, spec.dim_single, len(slots))
    else:
        groups = [make_unitary_group(spec, b) for b in blocks]
        lam = reduce(np.add.outer, (g.eigenvalues for g in groups)).ravel()
        v = reduce(np.kron, (g.eigenvectors for g in groups))
        v = v.reshape((spec.dim_single,) * len(slots) + (lam.size,))
        v = v.transpose((*np.argsort(slots), len(slots))).reshape(lam.size, lam.size)
    ug = UnitaryGroup(ParticleSet.of(slots), spec.dim_single, spec.hbar, lam, v)
    cache[key] = ug
    return ug


def phases(ug: UnitaryGroup, t) -> np.ndarray:
    """exp(-(i/hbar) t lambda): the propagator's eigenvalues at time t, or a
    row of them per time for a column t of times."""
    return np.exp(-1j * t / ug.hbar * ug.eigenvalues)


def unitary_matrix(ug: UnitaryGroup, t: float) -> np.ndarray:
    """exp(-(i/hbar) t H) from the cached spectral data."""
    return (ug.eigenvectors * phases(ug, t)) @ ug.eigenvectors.conj().T


def _conjugate(ug: UnitaryGroup, t: float, f: ManyBodyOperator) -> ManyBodyOperator:
    """The conjugation kernel: U f U^* with U = unitary_matrix(ug, t), or f at t = 0."""
    if f.labels != ug.labels or f.dim_single != ug.dim_single:
        raise ValueError(
            f"propagator on {ug.labels} with d = {ug.dim_single} cannot act "
            f"on an operand on {f.labels} with d = {f.dim_single}"
        )
    if t == 0.0:
        return f
    u = unitary_matrix(ug, t)
    return ManyBodyOperator(f.labels, f.dim_single, u @ f.matrix @ u.conj().T)


def group_apply(ug: UnitaryGroup, t: float, f: ManyBodyOperator) -> ManyBodyOperator:
    """Conjugate f with the propagator at time t (t = 0 returns f itself)."""
    return _conjugate(ug, t, f)


def group_apply_on_subsets(
    spec: SystemSpec, t: float, blocks: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate f with the product of the blocks' own propagators."""
    return _conjugate(_family_group(spec, blocks.elements), t, f)


class DensityFlow:
    """D_n(t) = U_n(t) D_n U_n(t)^* for every component of a plain sequence
    d0; ``parts`` maps n to (the group of H_n, D~_n = V^* D_n V)."""

    def __init__(self, spec: SystemSpec, d0: OperatorSequence):
        if not isinstance(d0, OperatorSequence):
            raise TypeError("a density flow needs an OperatorSequence")
        if d0.prefix != 0:
            raise ValueError("cannot evolve a prefixed sequence")
        self.d0 = d0
        self.parts = {}
        for n, op in d0.components.items():
            ug = make_unitary_group(spec, op.labels)
            v = ug.eigenvectors
            self.parts[n] = (ug, v.conj().T @ op.matrix @ v)

    def at(self, t: float) -> OperatorSequence:
        """V (P o D~) V^* per component, P = p p^* with p = phases(ug, t);
        d0 itself at t = 0."""
        if t == 0.0:
            return self.d0
        comps = {}
        for n, (ug, dt) in self.parts.items():
            vp = ug.eigenvectors * phases(ug, t)
            comps[n] = ManyBodyOperator(ug.labels, ug.dim_single, vp @ dt @ vp.conj().T)
        d0 = self.d0
        return OperatorSequence(d0.dim_single, d0.n_max, d0.scalar0, comps)


def evolve_density_sequence(spec: SystemSpec, d0, t: float):
    """Componentwise evolution of a plain operator sequence, D_n(t) =
    U_n(t) D_n U_n(t)^*: the :class:`DensityFlow` of d0 at t alone."""
    return DensityFlow(spec, d0).at(t)
