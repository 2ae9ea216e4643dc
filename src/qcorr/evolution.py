"""Unitary one-parameter groups and their conjugation action on operators.

The propagator is computed by Hermitian eigendecomposition, so unitarity
is exact up to round-off and any time is reachable in one shot.  H_n of
identical particles commutes with every particle permutation, so it is
diagonalized in the blocks of the pair swaps (1 2), (3 4), ...
(:func:`qcorr.operators.swap_block_spectrum`; 100, 60, 60 and 36 at d = 4,
n = 4, in place of one of 256), and a group keeps its spectral data in
those blocks alone: per block its eigenvalues and the vectors W_b, in the
block's basis Q_b, that diagonalize it.  H_n is one block of the identity
basis when an explicit potential leaves it asymmetric beyond round-off.
The groups are cached per system and label set: cumulant sums revisit the
same groups across many partitions, and must not pay for repeated
eigendecompositions.  Every route takes its time dependence from one
place, the phases p_b = exp(-(i/hbar) t lambda_b) of :func:`phases`, one
array per block.

The run's routes propagate in the blocks.  An operand x moves into the
eigenbasis once (:func:`eigenbasis_parts`), as the block pairs x~_bc =
W_b^* Q_b^T x Q_c W_c, by index arithmetic and two products per pair of
the blocks' sizes; an operand that commutes with the pair swaps keeps the
pairs b = c alone.  At time t it returns as sum Q_b W_b (p_b x~_bc p_c^*)
W_c^* Q_c^T (:func:`evolve_parts`), again two block-sized products per
pair and one take per axis and block, so no product of size D = d^n runs
on exchange-symmetric data.  :class:`DensityFlow` evolves a density
sequence this way, as do the observables and the chain ends of the
iteration series, whose collisions read the same parts.

The reference routes build the propagator from the same blocks:
``unitary_matrix(ug, t)`` is sum_b Q_b (W_b p_b) W_b^* Q_b^T, and a block
family's propagator is the tensor product of its blocks' own, U_P(t) =
U_B1(t) x ... x U_Bk(t), so a family has no spectral data of its own.
The conjugation U x U^* (:func:`_conjugate`), with U built on every call,
is shared by ``group_apply``, ``group_apply_on_subsets`` and the cumulant
formula.

Time convention: ``unitary_matrix(ug, t)`` is exp(-(i/hbar) t H), and
``group_apply(ug, t, f)`` conjugates f with it.  The t-derivative of
``group_apply`` at 0 is therefore exactly the full Liouvillian RHS
generator -(i/hbar)[H, f] (``verify.liouvillian_apply``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .hamiltonian import SystemSpec, build_hamiltonian
from .operators import (
    ManyBodyOperator,
    from_swap_blocks,
    swap_block_spectrum,
    swap_blocks_of,
    tensor_product,
)
from .partitions import ClusterSet, ParticleSet
from .star_algebra import OperatorSequence


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Spectral data of H on a label set, ready to exponentiate at any t:
    per block (lam, w, basis), as :func:`qcorr.operators.swap_block_spectrum`
    gives them."""

    labels: ParticleSet
    dim_single: int
    hbar: float
    blocks: tuple


_CACHE: "weakref.WeakKeyDictionary[SystemSpec, dict]" = weakref.WeakKeyDictionary()


def make_unitary_group(spec: SystemSpec, labels: ParticleSet) -> UnitaryGroup:
    """Diagonalize H on the labels by :func:`qcorr.operators.swap_block_spectrum`,
    reusing the group cached per spec and label set."""
    cache = _CACHE.setdefault(spec, {})
    if labels not in cache:
        h = build_hamiltonian(spec, labels).matrix
        blocks = swap_block_spectrum(h, spec.dim_single, len(labels))
        cache[labels] = UnitaryGroup(labels, spec.dim_single, spec.hbar, blocks)
    return cache[labels]


def phases(ug: UnitaryGroup, t) -> list:
    """exp(-(i/hbar) t lambda) per block: the propagator's eigenvalues at
    time t, or a row of them per time for a column t of times."""
    return [np.exp(-1j * t / ug.hbar * lam) for lam, _, _ in ug.blocks]


def unitary_matrix(ug: UnitaryGroup, t: float) -> np.ndarray:
    """exp(-(i/hbar) t H) = sum_b Q_b (W_b p_b) W_b^* Q_b^T, p = phases(ug, t),
    assembled from the blocks by :func:`qcorr.operators.from_swap_blocks`."""
    ps = phases(ug, t)
    moved = {(b, b): (w * ps[b]) @ w.conj().T for b, (_, w, _) in enumerate(ug.blocks)}
    return from_swap_blocks(moved, ug.blocks)


def eigenbasis_parts(ug: UnitaryGroup, x: np.ndarray) -> dict:
    """{(b, c): W_b^* Q_b^T x Q_c W_c}: the matrix x moved into the eigenbasis
    of ug, one pair of its blocks at a time, the pairs b = c alone when x
    commutes with the pair swaps (:func:`qcorr.operators.swap_blocks_of`)."""
    parts = swap_blocks_of(x, ug.dim_single, len(ug.labels), ug.blocks)
    ws = [w for _, w, _ in ug.blocks]
    return {(b, c): ws[b].conj().T @ y @ ws[c] for (b, c), y in parts.items()}


def evolve_parts(ug: UnitaryGroup, parts: dict, t: float) -> np.ndarray:
    """U(t) x U(t)^* from x's :func:`eigenbasis_parts`: the sum over the
    pairs of Q_b (W_b p_b) x~_bc (W_c p_c)^* Q_c^T, p = phases(ug, t)."""
    wp = [w * p for (_, w, _), p in zip(ug.blocks, phases(ug, t))]
    moved = {(b, c): wp[b] @ x @ wp[c].conj().T for (b, c), x in parts.items()}
    return from_swap_blocks(moved, ug.blocks)


def _conjugate(labels: ParticleSet, d: int, t: float, f: ManyBodyOperator, propagator):
    """U f U^*, U = propagator(t) on the labels with dimension d; f at t = 0."""
    if f.labels != labels or f.dim_single != d:
        raise ValueError(
            f"propagator on {labels} with d = {d} cannot act "
            f"on an operand on {f.labels} with d = {f.dim_single}"
        )
    if t == 0.0:
        return f
    u = propagator(t)
    return ManyBodyOperator(f.labels, f.dim_single, u @ f.matrix @ u.conj().T)


def group_apply(ug: UnitaryGroup, t: float, f: ManyBodyOperator) -> ManyBodyOperator:
    """Conjugate f with the propagator at time t (t = 0 returns f itself)."""
    return _conjugate(ug.labels, ug.dim_single, t, f, lambda t: unitary_matrix(ug, t))


def group_apply_on_subsets(
    spec: SystemSpec, t: float, blocks: ClusterSet, f: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate f with the tensor product of the blocks' own propagators."""
    d = spec.dim_single

    def product(t):
        us = [unitary_matrix(make_unitary_group(spec, b), t) for b in blocks]
        return tensor_product(ManyBodyOperator(b, d, u) for b, u in zip(blocks, us)).matrix

    return _conjugate(blocks.union, d, t, f, product)


class DensityFlow:
    """D_n(t) = U_n(t) D_n U_n(t)^* for every component of a plain sequence
    d0; ``parts`` maps n to (the group of H_n, the :func:`eigenbasis_parts`
    of D_n)."""

    def __init__(self, spec: SystemSpec, d0: OperatorSequence):
        if not isinstance(d0, OperatorSequence):
            raise TypeError("a density flow needs an OperatorSequence")
        if d0.prefix != 0:
            raise ValueError("cannot evolve a prefixed sequence")
        self.d0 = d0
        self.parts = {}
        for n, op in d0.components.items():
            ug = make_unitary_group(spec, op.labels)
            self.parts[n] = (ug, eigenbasis_parts(ug, op.matrix))

    def at(self, t: float) -> OperatorSequence:
        """Each component by :func:`evolve_parts`; d0 itself at t = 0."""
        if t == 0.0:
            return self.d0
        comps = {}
        for n, (ug, parts) in self.parts.items():
            comps[n] = ManyBodyOperator(ug.labels, ug.dim_single, evolve_parts(ug, parts, t))
        d0 = self.d0
        return OperatorSequence(d0.dim_single, d0.n_max, d0.scalar0, comps)


def evolve_density_sequence(spec: SystemSpec, d0, t: float):
    """Componentwise evolution of a plain operator sequence, D_n(t) =
    U_n(t) D_n U_n(t)^*: the :class:`DensityFlow` of d0 at t alone."""
    return DensityFlow(spec, d0).at(t)
