"""Labeled many-body operators on finite tensor-product spaces.

A :class:`ManyBodyOperator` is a complex square matrix of size d^n together
with the n particle labels it acts on.  The row (and column) index is the
lexicographic multi-index over per-particle indices, taken in ascending
label order: the smallest label is the most significant digit.

The module provides the plumbing every formula downstream is built from:
embedding into larger label sets, products over disjoint supports, partial
traces, trace norms, and permutation-symmetry checks.  Embeddings and
symmetry checks are done with axis permutations of the reshaped tensor, so
no d^{2n} x d^{2n} permutation matrices are ever materialized.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from math import factorial
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .partitions import ParticleSet

TAU_HERM = 1e-10

# hard cap on a single operator's matrix dimension (d^n); 1024 covers every
# desk-scale target (d<=4, n<=4 -> 256) plus deep sequence work at d=2
MAX_OPERATOR_DIM = 1024

_LETTERS = string.ascii_lowercase


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

    def __matmul__(self, other: "ManyBodyOperator") -> "ManyBodyOperator":
        self._require_same_space(other)
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix @ other.matrix)

    def dagger(self) -> "ManyBodyOperator":
        return ManyBodyOperator(self.labels, self.dim_single, self.matrix.conj().T)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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


def _as_tensor(op: ManyBodyOperator) -> np.ndarray:
    n = len(op.labels)
    d = op.dim_single
    return op.matrix.reshape((d,) * (2 * n))


def _permute_axes(op: ManyBodyOperator, perm: tuple[int, ...]) -> np.ndarray:
    """Matrix of op with row and column tensor axes rearranged by perm.

    Output axis j takes input axis perm[j], applied identically to row and
    column index groups.
    """
    n = len(op.labels)
    if n <= 1:
        return op.matrix
    t = _as_tensor(op)
    full = tuple(perm) + tuple(n + p for p in perm)
    return t.transpose(full).reshape(op.dim, op.dim)


def permute_particles(op: ManyBodyOperator, perm: tuple[int, ...]) -> ManyBodyOperator:
    """Conjugate op by the permutation sending tensor slot perm[j] to slot j.

    ``perm`` is a rearrangement of range(n) over the positions of
    op.labels in ascending order; labels themselves do not change.
    """
    n = len(op.labels)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of range({n})")
    return ManyBodyOperator(op.labels, op.dim_single, _permute_axes(op, tuple(perm)))


def tensor_product(ops: Iterable[ManyBodyOperator]) -> ManyBodyOperator:
    """Product of operators on pairwise disjoint label sets.

    The result lives on the union of the labels with axes in ascending
    label order, so it is independent of the order the factors are given.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("tensor_product needs at least one factor")
    d = ops[0].dim_single
    for op in ops:
        if op.dim_single != d:
            raise ValueError("mixed single-particle dimensions")
    ordered = sorted(
        (op for op in ops if len(op.labels) > 0),
        key=lambda op: op.labels.labels[0],
    )
    scalars = [op for op in ops if len(op.labels) == 0]
    scale = 1.0 + 0.0j
    for s in scalars:
        scale = scale * s.matrix[0, 0]
    if not ordered:
        return ManyBodyOperator(ParticleSet(()), d, np.array([[scale]]))

    seen: set[int] = set()
    for op in ordered:
        if seen & set(op.labels.labels):
            raise ValueError("tensor_product factors must have disjoint labels")
        seen |= set(op.labels.labels)

    big = ordered[0].matrix
    cur: list[int] = list(ordered[0].labels)
    for op in ordered[1:]:
        big = np.kron(big, op.matrix)
        cur.extend(op.labels)
    target = sorted(cur)
    n = len(target)
    if cur != target:
        perm = tuple(cur.index(l) for l in target)
        t = big.reshape((d,) * (2 * n))
        big = t.transpose(perm + tuple(n + p for p in perm)).reshape(d**n, d**n)
    if scale != 1.0 + 0.0j:
        big = big * scale
    return ManyBodyOperator(ParticleSet(tuple(target)), d, big)


def tensor_embed(op: ManyBodyOperator, target: ParticleSet) -> ManyBodyOperator:
    """Extend op by identity factors so it acts on the labels of target."""
    if not op.labels.issubset(target):
        raise ValueError(f"labels {op.labels} not contained in target {target}")
    extra = target.difference(op.labels)
    if len(extra) == 0:
        return op
    return tensor_product([op, identity_operator(extra, op.dim_single)])


def partial_trace(op: ManyBodyOperator, traced: ParticleSet) -> ManyBodyOperator:
    """Trace out the named particles; the result keeps the remaining labels."""
    if not traced.issubset(op.labels):
        raise ValueError(f"traced set {traced} not within {op.labels}")
    if len(traced) == 0:
        return op
    d = op.dim_single
    n = len(op.labels)
    row: dict[int, str] = {}
    col: dict[int, str] = {}
    nxt = 0
    for l in op.labels:
        if l in traced:
            row[l] = col[l] = _LETTERS[nxt]
            nxt += 1
        else:
            row[l] = _LETTERS[nxt]
            col[l] = _LETTERS[nxt + 1]
            nxt += 2
    kept = op.labels.difference(traced)
    sub = "".join(row[l] for l in op.labels) + "".join(col[l] for l in op.labels)
    out = "".join(row[l] for l in kept) + "".join(col[l] for l in kept)
    res = np.einsum(f"{sub}->{out}", _as_tensor(op))
    m = d ** len(kept)
    return ManyBodyOperator(kept, d, np.asarray(res).reshape(m, m))


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
    return float(np.max(np.abs(_permute_axes(op, perm) - op.matrix)))


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


def check_mb_symmetry(op: ManyBodyOperator, tol: float = TAU_HERM) -> bool:
    """True iff op commutes with every particle-permutation conjugation.

    Decides mb_symmetry_defect(op) <= tol * max(1, max_abs(op)), first from
    the transpositions alone: every permutation is a product of at most
    n - 1 transpositions, and conjugating by a permutation only moves
    entries, so the defect of any permutation is at most n - 1 times the
    largest transposition defect.
    """
    bound = tol * max(1.0, max_abs(op))
    n = len(op.labels)
    swaps = [_transposition(n, i, j) for i, j in itertools.combinations(range(n), 2)]
    if all(_conjugate_defect(op, p) <= bound / (n - 1) for p in swaps):
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
    acc = op
    for m in range(1, n):
        total = acc.matrix
        for j in range(m):
            total = total + _permute_axes(acc, _transposition(n, j, m))
        acc = ManyBodyOperator(op.labels, op.dim_single, total)
    return ManyBodyOperator(op.labels, op.dim_single, acc.matrix / factorial(n))


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
