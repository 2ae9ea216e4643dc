"""Unitary one-parameter groups and their conjugation action on operators.

The propagator is computed by Hermitian eigendecomposition, so unitarity
is exact up to round-off and any time is reachable in one shot.  H_n of
identical particles commutes with every particle permutation, so it is
diagonalized in the blocks of the pair swaps (1 2), (3 4), ...
(:func:`qcorr.operators.swap_block_spectrum`; 100, 60, 60 and 36 at d = 4,
n = 4, in place of one of 256), and a group keeps its spectral data in
those blocks: per block the eigenvectors W_b in the block's basis Q_b, so
that V = Q W.  H_n is one block of the identity basis when an explicit
potential leaves it asymmetric beyond round-off, and so is a block family's
H_P = sum_B H_B, whose spectral data is the tensor product of the blocks'
own.  The spectral data is cached per system, for label sets and for block
families: cumulant sums revisit the same groups across many partitions,
and must not pay for repeated eigendecompositions.  Every route takes its
time dependence from one place, the phases p = exp(-(i/hbar) t lambda) of
:func:`phases`.

The run's routes propagate in the blocks.  An operand x moves into the
eigenbasis once (:func:`eigenbasis_parts`), as the block pairs x~_bc =
W_b^* Q_b^T x Q_c W_c, by index arithmetic and two products per pair of
the blocks' sizes; an operand that commutes with the pair swaps keeps the
pairs b = c alone.  At time t it returns as sum Q_b W_b (p_b x~_bc p_c^*)
W_c^* Q_c^T (:func:`evolve_parts`), again two block-sized products per
pair and one take per axis and block, so no product of size D = d^n runs
on exchange-symmetric data.  :class:`DensityFlow` evolves a density
sequence this way, as do the iteration series and the observables.

The dense eigenvectors V (``UnitaryGroup.eigenvectors``) are built from the
blocks on demand, for the reference routes: ``unitary_matrix(ug, t)`` and
the conjugation :func:`_conjugate`, U x U^* with U built on every call,
which ``group_apply``, ``group_apply_on_subsets`` and the cumulant formula
share.

Time convention: ``unitary_matrix(ug, t)`` is exp(-(i/hbar) t H), and
``group_apply(ug, t, f)`` conjugates f with it.  The t-derivative of
``group_apply`` at 0 is therefore exactly the full Liouvillian RHS
generator -(i/hbar)[H, f] (``verify.liouvillian_apply``).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .hamiltonian import SystemSpec, build_hamiltonian
from .operators import (
    ManyBodyOperator,
    _swap_blocks,
    block_vectors,
    from_swap_blocks,
    swap_block_spectrum,
    swap_blocks_of,
)
from .partitions import ClusterSet, ParticleSet
from .star_algebra import OperatorSequence


@dataclass(frozen=True, eq=False)
class UnitaryGroup:
    """Spectral data of H on a label set, ready to exponentiate at any t:
    the eigenvalues, and per block (cols, w, basis) as
    :func:`qcorr.operators.swap_block_spectrum` gives them, eigenvalues[cols]
    being the block's."""

    labels: ParticleSet
    dim_single: int
    hbar: float
    eigenvalues: np.ndarray
    blocks: tuple

    @property
    def bases(self) -> list:
        return [basis for _, _, basis in self.blocks]

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """V, whose column j belongs to eigenvalues[j], for the reference routes."""
        return block_vectors(self.blocks, self.eigenvalues.size)


_CACHE: "weakref.WeakKeyDictionary[SystemSpec, dict]" = weakref.WeakKeyDictionary()


def make_unitary_group(spec: SystemSpec, labels: ParticleSet) -> UnitaryGroup:
    """Diagonalize H on the labels, reusing cached spectral data per spec."""
    return _family_group(spec, (labels,))


def _family_group(spec: SystemSpec, blocks: tuple) -> UnitaryGroup:
    """The group of sum_B H_B on the union of the blocks, cached per spec.

    One block is diagonalized by :func:`qcorr.operators.swap_block_spectrum`,
    in the blocks of its pair swaps when H is exchange-symmetric.  Several
    take the Kronecker sum of the blocks' eigenvalues and the Kronecker
    product of their eigenvectors, rows in label order, as one block of the
    identity basis.
    """
    key = tuple(b.labels for b in blocks)
    cache = _CACHE.setdefault(spec, {})
    if key in cache:
        return cache[key]
    slots = sum(key, ())
    if len(key) == 1:
        h = build_hamiltonian(spec, blocks[0]).matrix
        lam, parts = swap_block_spectrum(h, spec.dim_single, len(slots))
    else:
        groups = [make_unitary_group(spec, b) for b in blocks]
        lam = reduce(np.add.outer, (g.eigenvalues for g in groups)).ravel()
        v = reduce(np.kron, (g.eigenvectors for g in groups))
        v = v.reshape((spec.dim_single,) * len(slots) + (lam.size,))
        v = v.transpose((*np.argsort(slots), len(slots))).reshape(lam.size, lam.size)
        parts = ((np.arange(lam.size), v, _swap_blocks(lam.size, 1)[0]),)
    ug = UnitaryGroup(ParticleSet.of(slots), spec.dim_single, spec.hbar, lam, parts)
    cache[key] = ug
    return ug


def phases(ug: UnitaryGroup, t) -> np.ndarray:
    """exp(-(i/hbar) t lambda): the propagator's eigenvalues at time t, or a
    row of them per time for a column t of times."""
    return np.exp(-1j * t / ug.hbar * ug.eigenvalues)


def unitary_matrix(ug: UnitaryGroup, t: float) -> np.ndarray:
    """exp(-(i/hbar) t H) from the cached spectral data."""
    return (ug.eigenvectors * phases(ug, t)) @ ug.eigenvectors.conj().T


def eigenbasis_parts(ug: UnitaryGroup, x: np.ndarray) -> dict:
    """{(b, c): W_b^* Q_b^T x Q_c W_c}: the matrix x moved into the eigenbasis
    of ug, one pair of its blocks at a time, the pairs b = c alone when x
    commutes with the pair swaps (:func:`qcorr.operators.swap_blocks_of`)."""
    blocks = swap_blocks_of(x, ug.dim_single, len(ug.labels), ug.bases)
    ws = [w for _, w, _ in ug.blocks]
    return {(b, c): ws[b].conj().T @ y @ ws[c] for (b, c), y in blocks.items()}


def evolve_parts(ug: UnitaryGroup, parts: dict, t: float) -> np.ndarray:
    """U(t) x U(t)^* from x's :func:`eigenbasis_parts`: the sum over the
    pairs of Q_b (W_b p_b) x~_bc (W_c p_c)^* Q_c^T, p = phases(ug, t)."""
    p = phases(ug, t)
    wp = [w * p[cols] for cols, w, _ in ug.blocks]
    moved = {(b, c): wp[b] @ x @ wp[c].conj().T for (b, c), x in parts.items()}
    return from_swap_blocks(moved, ug.bases)


def propagate(ug: UnitaryGroup, t: float, x: np.ndarray) -> np.ndarray:
    """U(t) x U(t)^* in the blocks of ug, or x itself at t = 0."""
    return x if t == 0.0 else evolve_parts(ug, eigenbasis_parts(ug, x), t)


def _conjugate(ug: UnitaryGroup, t: float, f: ManyBodyOperator) -> ManyBodyOperator:
    """The reference conjugation: U f U^* with U = unitary_matrix(ug, t), or f at t = 0."""
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
