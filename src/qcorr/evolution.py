"""Unitary one-parameter groups and their conjugation action on operators.

The propagator is computed by Hermitian eigendecomposition, so unitarity
is exact up to round-off and any time is reachable in one shot.  The
spectral data is cached per system, for label sets and for block families
(whose H_P = sum_B H_B takes its spectral data from the blocks' own):
cumulant sums revisit the same groups across many partitions, and must not
pay for repeated eigendecompositions.

Every conjugation of a fresh operand is the kernel :func:`_conjugate`, U m U^*
with U = ``unitary_matrix(ug, t)``: three D^3 products.  Only the iteration
series' top level differs: it keeps V^* F V for all quadrature nodes, two
products per node, where the eigenbasis form would take four on a fresh operand.

Time convention: ``unitary_matrix(ug, t)`` is exp(-(i/hbar) t H), and
``group_apply(ug, t, f)`` conjugates f with it.  The t-derivative of
``group_apply`` at 0 is therefore exactly the full Liouvillian RHS
generator -(i/hbar)[H, f] (``verify.liouvillian_apply``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .hamiltonian import SystemSpec, build_hamiltonian
from .operators import ManyBodyOperator
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

    def __post_init__(self):
        v = self.eigenvectors
        dev = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[0]))
        if dev > 1e-10 * max(1.0, v.shape[0]):
            raise ArithmeticError(f"eigenvector matrix not unitary, deviation {dev}")


_CACHE: "weakref.WeakKeyDictionary[SystemSpec, dict]" = weakref.WeakKeyDictionary()
_CACHE_LOCK = threading.Lock()


def make_unitary_group(spec: SystemSpec, labels: ParticleSet) -> UnitaryGroup:
    """Diagonalize H on the labels, reusing cached spectral data per spec."""
    return _family_group(spec, (labels,))


def _family_group(spec: SystemSpec, blocks: tuple) -> UnitaryGroup:
    """The group of sum_B H_B on the union of the blocks, cached per spec.

    One block is diagonalized.  Several take the Kronecker sum of the blocks'
    eigenvalues and the Kronecker product of their eigenvectors, rows in label order.
    """
    key = tuple(b.labels for b in blocks)
    with _CACHE_LOCK:
        cached = _CACHE.setdefault(spec, {}).get(key)
    if cached is not None:
        return cached
    slots = sum(key, ())
    if len(key) == 1:
        try:
            lam, v = np.linalg.eigh(build_hamiltonian(spec, blocks[0]).matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - numeric corner
            raise ArithmeticError(f"eigendecomposition failed: {exc}") from exc
    else:
        groups = [make_unitary_group(spec, b) for b in blocks]
        lam = reduce(np.add.outer, (g.eigenvalues for g in groups)).ravel()
        v = reduce(np.kron, (g.eigenvectors for g in groups))
        v = v.reshape((spec.dim_single,) * len(slots) + (lam.size,))
        v = v.transpose((*np.argsort(slots), len(slots))).reshape(lam.size, lam.size)
    ug = UnitaryGroup(ParticleSet.of(slots), spec.dim_single, spec.hbar, lam, v)
    with _CACHE_LOCK:
        return _CACHE.setdefault(spec, {}).setdefault(key, ug)


def unitary_matrix(ug: UnitaryGroup, t: float) -> np.ndarray:
    """exp(-(i/hbar) t H) from the cached spectral data."""
    phases = np.exp(-1j * t / ug.hbar * ug.eigenvalues)
    return (ug.eigenvectors * phases) @ ug.eigenvectors.conj().T


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


def evolve_density_sequence(spec: SystemSpec, d0, t: float):
    """Componentwise conjugation of a plain operator sequence.

    Component n evolves under the n-particle propagator; the scalar
    component is unchanged.  Accepts and returns an OperatorSequence.
    """
    if not isinstance(d0, OperatorSequence):
        raise TypeError("evolve_density_sequence expects an OperatorSequence")
    if d0.prefix != 0:
        raise ValueError("cannot evolve a prefixed sequence")
    comps = {
        n: group_apply(make_unitary_group(spec, op.labels), t, op)
        for n, op in d0.components.items()
    }
    return OperatorSequence(d0.dim_single, d0.n_max, d0.scalar0, comps)
