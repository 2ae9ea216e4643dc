"""Labeled many-body operators on finite tensor-product spaces.

A :class:`ManyBodyOperator` is a complex square matrix of size d^n together
with the n particle labels it acts on.  The row (and column) index is the
lexicographic multi-index over per-particle indices, taken in ascending
label order: the smallest label is the most significant digit.

The module provides the plumbing every formula downstream is built from:
embedding into larger label sets, products over disjoint supports, partial
traces, trace norms, and permutation-symmetry checks.

The slot convention lives in one place.  :func:`_permute_slots` moves the
row and column slots of a matrix alike, by an axis permutation of the
reshaped tensor, so no d^{2n} x d^{2n} permutation matrix is ever
materialized.  :func:`embed_sum` krons each local term with an identity and
moves it into label order with that helper; every embedding and every sum
of local terms (Hamiltonians, interaction generators, additive observables)
goes through it.  :func:`tensor_product`, :func:`symmetrize` and
the symmetry checks use the helper too.
:func:`partial_trace` stays on ``np.einsum`` with integer sublists, where a
traced slot's column axis is its row axis: routing it through the helper
would make a transposed copy first, several times slower than the einsum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError
from .partitions import ParticleSet

TAU_HERM = 1e-10

# hard cap on a single operator's matrix dimension (d^n); 1024 covers every
# desk-scale target (d<=4, n<=4 -> 256) plus deep sequence work at d=2
MAX_OPERATOR_DIM = 1024


@dataclass(frozen=True, eq=False)
class ManyBodyOperator:
    """A matrix on the tensor factors named by ``labels``."""

    labels: ParticleSet
    dim_single: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.dim_single < 1:
            raise ValueError(f"dim_single must be >= 1, got {self.dim_single}")
        dim = self.dim_single ** len(self.labels)
        if dim > MAX_OPERATOR_DIM:
            raise CapacityError(
                f"operator dimension {dim} exceeds cap {MAX_OPERATOR_DIM}"
            )
        # order="C": transposed views arrive F-ordered and the float view
        # below needs a contiguous last axis
        m = np.array(self.matrix, dtype=complex, order="C")
        if m.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match d^n = {dim} "
                f"for labels {self.labels}"
            )
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    # -- basic algebra ----------------------------------------------------

    def _require_same_space(self, other: "ManyBodyOperator"):
        if self.labels != other.labels or self.dim_single != other.dim_single:
            raise ValueError(
                f"operator spaces differ: {self.labels}/d={self.dim_single} "
                f"vs {other.labels}/d={other.dim_single}"
            )

    def __add__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._require_same_space(other)
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix + other.matrix)

    def __sub__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._require_same_space(other)
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix - other.matrix)

    def __mul__(self, scalar) -> "ManyBodyOperator":
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "ManyBodyOperator":
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix / scalar)

    def __neg__(self) -> "ManyBodyOperator":
        return ManyBodyOperator(self.labels, self.dim_single, -self.matrix)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def __repr__(self) -> str:
        return f"ManyBodyOperator(labels={self.labels}, d={self.dim_single})"


def zero_operator(labels: ParticleSet, dim_single: int) -> ManyBodyOperator:
    n = dim_single ** len(labels)
    return ManyBodyOperator(labels, dim_single, np.zeros((n, n), dtype=complex))


def identity_operator(labels: ParticleSet, dim_single: int) -> ManyBodyOperator:
    n = dim_single ** len(labels)
    return ManyBodyOperator(labels, dim_single, np.eye(n, dtype=complex))


def relabel(op: ManyBodyOperator, new_labels: ParticleSet) -> ManyBodyOperator:
    """Transport op onto a new label set by the order-preserving bijection.

    The matrix is unchanged; only the names of the tensor factors move.
    """
    if len(new_labels) != len(op.labels):
        raise ValueError(
            f"relabel needs equal sizes, got {op.labels} -> {new_labels}"
        )
    return ManyBodyOperator(new_labels, op.dim_single, op.matrix)


def _permute_slots(m: np.ndarray, perm: Sequence[int], d: int) -> np.ndarray:
    """m with its row and column slots rearranged alike.

    Output slot j takes input slot perm[j]; the identity returns m itself.
    """
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if perm == tuple(range(n)):
        return m
    t = m.reshape((d,) * (2 * n))
    return t.transpose(perm + tuple(n + p for p in perm)).reshape(m.shape)


def embed_sum(
    terms: Iterable[tuple[Sequence[int], np.ndarray]], target: ParticleSet, d: int
) -> np.ndarray:
    """Sum over (labels, m) terms of m extended by identities onto target.

    m acts on the slots named by labels, in the order given.  Each term is
    kron(m, 1) moved into the ascending label order of target, and the
    terms are added in the order given.
    """
    dim = d ** len(target)
    total = np.zeros((dim, dim), dtype=complex)
    for labels, m in terms:
        labels = tuple(labels)
        rest = tuple(l for l in target if l not in labels)
        if len(labels) + len(rest) != len(target):
            raise ValueError(f"labels {labels} not contained in target {target}")
        big = np.kron(m, np.eye(d ** len(rest), dtype=complex))
        total += _permute_slots(big, np.argsort(labels + rest), d)
    return total


def tensor_product(ops: Iterable[ManyBodyOperator]) -> ManyBodyOperator:
    """Product of operators on pairwise disjoint label sets.

    The factors are kronned in the order given and the result moved once
    into ascending label order.  A factor on no labels is a scalar.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("tensor_product needs at least one factor")
    d = ops[0].dim_single
    if any(op.dim_single != d for op in ops):
        raise ValueError("mixed single-particle dimensions")
    labels = tuple(l for op in ops for l in op.labels)
    if len(set(labels)) != len(labels):
        raise ValueError("tensor_product factors must have disjoint labels")
    big = ops[0].matrix
    for op in ops[1:]:
        big = np.kron(big, op.matrix)
    return ManyBodyOperator(
        ParticleSet.of(labels), d, _permute_slots(big, np.argsort(labels), d)
    )


def tensor_embed(op: ManyBodyOperator, target: ParticleSet) -> ManyBodyOperator:
    """Extend op by identity factors so it acts on the labels of target."""
    d = op.dim_single
    return ManyBodyOperator(target, d, embed_sum([(op.labels, op.matrix)], target, d))


def partial_trace(op: ManyBodyOperator, traced: ParticleSet) -> ManyBodyOperator:
    """Trace out the named particles; the result keeps the remaining labels."""
    if not traced.issubset(op.labels):
        raise ValueError(f"traced set {traced} not within {op.labels}")
    if len(traced) == 0:
        return op
    d = op.dim_single
    n = len(op.labels)
    # row axis i, column axis n + i; a traced slot's column axis is its row axis
    cols = [i if l in traced else n + i for i, l in enumerate(op.labels)]
    kept = [i for i, l in enumerate(op.labels) if l not in traced]
    t = op.matrix.reshape((d,) * (2 * n))
    res = np.einsum(t, list(range(n)) + cols, kept + [n + i for i in kept])
    m = d ** len(kept)
    return ManyBodyOperator(op.labels.difference(traced), d, res.reshape(m, m))


def trace_norm(op: ManyBodyOperator) -> float:
    """Sum of singular values."""
    try:
        s = np.linalg.svd(op.matrix, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numeric corner
        raise ArithmeticError(f"singular value computation failed: {exc}") from exc
    return float(np.sum(s))


def max_abs(op: ManyBodyOperator) -> float:
    return float(np.max(np.abs(op.matrix))) if op.matrix.size else 0.0


def _transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    """The permutation of range(n) that swaps i and j."""
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return tuple(perm)


def _conjugate_defect(op: ManyBodyOperator, perm: tuple[int, ...]) -> float:
    """Largest entry of |P op P^dagger - op| for the particle permutation perm."""
    moved = _permute_slots(op.matrix, perm, op.dim_single)
    return float(np.max(np.abs(moved - op.matrix)))


def mb_symmetry_defect(op: ManyBodyOperator) -> float:
    """Largest deviation of op from any particle-permutation conjugate."""
    n = len(op.labels)
    if n <= 1:
        return 0.0
    worst = 0.0
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        worst = max(worst, _conjugate_defect(op, perm))
    return worst


def check_mb_symmetry(op: ManyBodyOperator) -> bool:
    """True iff op commutes with every particle-permutation conjugation.

    Decides mb_symmetry_defect(op) <= TAU_HERM * max(1, max_abs(op)) from
    the largest transposition defect T where it can: a transposition is a
    permutation, so T above the bound refuses, and every permutation is a
    product of at most n - 1 transpositions, each of which only moves
    entries, so T within bound / (n - 1) accepts.  Only a T between the two
    scans all n! permutations.
    """
    n = len(op.labels)
    if n <= 1:
        return True
    bound = TAU_HERM * max(1.0, max_abs(op))
    worst = max(
        _conjugate_defect(op, _transposition(n, i, j))
        for i, j in itertools.combinations(range(n), 2)
    )
    if worst > bound:
        return False
    if worst <= bound / (n - 1):
        return True
    return mb_symmetry_defect(op) <= bound


def symmetrize(op: ManyBodyOperator) -> ManyBodyOperator:
    """Average of op over all particle-permutation conjugations.

    The sum over S_n is the product over m = 2..n of the coset sums
    e + sum_{j<m} (j m) of S_m over S_{m-1}, applied in turn: n(n-1)/2
    transposition conjugations in place of n! permutations.
    """
    n = len(op.labels)
    if n <= 1:
        return op
    acc = op.matrix
    for m in range(1, n):
        total = acc
        for j in range(m):
            total = total + _permute_slots(acc, _transposition(n, j, m), op.dim_single)
        acc = total
    return ManyBodyOperator(op.labels, op.dim_single, acc / factorial(n))


def scaled_hermitian_defect(m: np.ndarray) -> tuple[float, float, float]:
    """||m - m^dagger||_F and ||m||_F, each divided by c, and c itself.

    c is the largest |Re| or |Im| of an entry (1 for the zero matrix), so
    neither norm can overflow however large the entries are.  The real and
    imaginary parts are scaled apart: complex division by a subnormal c
    would overflow in its reciprocal.
    """
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    scale = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max())) or 1.0
    re, im = m.real / scale, m.imag / scale
    dev = np.hypot(np.linalg.norm(re - re.T), np.linalg.norm(im + im.T))
    return float(dev), float(np.hypot(np.linalg.norm(re), np.linalg.norm(im))), scale


def min_eigenvalue(op: ManyBodyOperator) -> float:
    herm = (op.matrix + op.matrix.conj().T) / 2
    return float(np.linalg.eigvalsh(herm)[0])
