"""Labeled many-body operators on finite tensor-product spaces.

A :class:`ManyBodyOperator` is a complex square matrix of size d^n together
with the n particle labels it acts on.  The row (and column) index is the
lexicographic multi-index over per-particle indices, taken in ascending
label order: the smallest label is the most significant digit.

The module provides the plumbing every formula downstream is built from:
embedding into larger label sets, products over disjoint supports, partial
traces, trace norms, and the Hermiticity and exchange-symmetry tests.

The slot convention lives in one place.  :func:`_slot_axes` gives the axes
of a matrix's (d,)*2n tensor that move row and column slots alike, and every
kernel that moves slots writes or adds through a strided view built from
them, never through a kron or a permuted copy.  :func:`embed_sum` (every
embedding and sum of local terms) adds each term onto the einsum view whose
other slots have equal row and column index; the permutation sum behind
:func:`symmetrize` and the symmetry test adds transposed views.  The bytes
are the kron route's: each entry gets the same nonzero addends in the same
order and the same products a_ij b_kl, and a kron's exact zeros neither
change a nonzero sum nor leave a -0.0, since every sum starts from +0.0 or
from its own first term.  :func:`partial_trace_matrix` stays on
``np.einsum`` with integer sublists; :func:`partial_trace` is its labelled form.

Each rule about input matrices has one owner: the constructor that receives
a matrix checks its shape and entries, :func:`require_hermitian` is the
one Hermiticity test, for input data and the ``min_eig`` gate alike, and
:func:`require_exchange_symmetric` is the one exchange-symmetry test, for
the potentials and the density data of the reduced-operator tasks.  It
compares a matrix with its own symmetrization, in n(n-1)/2 slot swaps.

Exchange symmetry also splits operands and spectra, in the joint
eigenbasis of the pair swaps (1 2), (3 4), ..., one block per pattern of
signs.  :func:`swap_blocks_of` moves any operand into those blocks by
index arithmetic and keeps only the diagonal block pairs when every other
pair lies within round-off of zero, so it drops only what it has measured;
:func:`from_swap_blocks` moves the pairs back.  :func:`swap_block_spectrum`
diagonalizes the diagonal pairs of a Hermitian matrix, or gives numpy the
matrix whole, as one block of the identity basis, when another pair is
kept; each block carries its own eigenvalues, vectors and basis.  The slot
kernels take their dtype from their operands, so they run on object arrays
of exact numbers too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial, frexp, log
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

    The matrix is unchanged; only the names of the tensor factors move, and
    the constructor refuses a label set whose size the matrix does not fit.
    """
    return ManyBodyOperator(new_labels, op.dim_single, op.matrix)


def _slot_axes(slots: Sequence[int], n: int) -> tuple[int, ...]:
    """The row axes, then the column axes, of the given slots of a (d,)*2n
    tensor, whose slot i has its row index on axis i and its column on n + i.

    ``t.transpose(_slot_axes(perm, n))`` moves row and column slots alike,
    output slot j taking input slot perm[j].
    """
    return tuple(slots) + tuple(n + s for s in slots)


def _kron_view(big: np.ndarray, d: int, n: int) -> np.ndarray:
    """The outer product of matrices, axes (row, column) per factor, as a
    (d,)*2n view with the slots of its kron: the kron's entries, not its copy."""
    rows_then_cols = (*range(0, big.ndim, 2), *range(1, big.ndim, 2))
    return big.transpose(rows_then_cols).reshape((d,) * (2 * n))


def embed_sum(
    terms: Iterable[tuple[Sequence[int], np.ndarray]], target: ParticleSet, d: int
) -> np.ndarray:
    """Sum over (labels, m) terms of m extended by identities onto target.

    m acts on the slots named by labels, in the order given, and is added,
    broadcast, onto the view of the total whose other slots have equal row
    and column index; the terms are added in the order given.  The total
    takes the dtype of the terms (complex when there are none).
    """
    terms = [(tuple(labels), m) for labels, m in terms]
    n = len(target)
    dtype = np.result_type(*(m for _, m in terms)) if terms else complex
    total = np.zeros((d**n, d**n), dtype=dtype)
    t = total.reshape((d,) * (2 * n))
    for labels, m in terms:
        rest = [i for i, l in enumerate(target) if l not in labels]
        if len(labels) + len(rest) != n:
            raise ValueError(f"labels {labels} not contained in target {target}")
        # a rest slot's column axis is its row axis; a 0-d einsum is a copy
        cols = [i if i in rest else n + i for i in range(n)]
        axes = [*rest, *_slot_axes([target.labels.index(l) for l in labels], n)]
        view = np.einsum(t, [*range(n), *cols], axes) if n else t
        view += m.reshape((d,) * (2 * len(labels)))
    return total


def tensor_product(ops: Iterable[ManyBodyOperator]) -> ManyBodyOperator:
    """Product of operators on pairwise disjoint label sets.

    The factors' kron, in the order given, is moved by one transposed copy
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
    n = len(labels)
    t = _kron_view(reduce(np.multiply.outer, [op.matrix for op in ops]), d, n)
    t = t.transpose(_slot_axes(np.argsort(labels), n))
    return ManyBodyOperator(ParticleSet.of(labels), d, t.reshape(d**n, d**n))


def tensor_embed(op: ManyBodyOperator, target: ParticleSet) -> ManyBodyOperator:
    """Extend op by identity factors so it acts on the labels of target."""
    d = op.dim_single
    return ManyBodyOperator(target, d, embed_sum([(op.labels, op.matrix)], target, d))


def partial_trace_matrix(
    m: np.ndarray, d: int, n: int, traced: Iterable[int]
) -> np.ndarray:
    """Trace the 0-based slots ``traced`` out of an n-slot matrix (none: m itself)."""
    traced = set(traced)
    if not traced:
        return m
    # row axis i, column axis n + i; a traced slot's column axis is its row axis
    cols = [i if i in traced else n + i for i in range(n)]
    kept = [i for i in range(n) if i not in traced]
    t = m.reshape((d,) * (2 * n))
    res = np.einsum(t, list(range(n)) + cols, kept + [n + i for i in kept])
    k = d ** len(kept)
    return res.reshape(k, k)


def partial_trace(op: ManyBodyOperator, traced: ParticleSet) -> ManyBodyOperator:
    """Trace out the named particles; the result keeps the remaining labels."""
    if not traced.issubset(op.labels):
        raise ValueError(f"traced set {traced} not within {op.labels}")
    slots = [i for i, l in enumerate(op.labels) if l in traced]
    d = op.dim_single
    m = partial_trace_matrix(op.matrix, d, len(op.labels), slots)
    return ManyBodyOperator(op.labels.difference(traced), d, m)


def trace_norm(op: ManyBodyOperator) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(op.matrix, compute_uv=False)))


def _transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    """The permutation of range(n) that swaps i and j."""
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return tuple(perm)


def _permutation_sum(m: np.ndarray, n: int, d: int) -> np.ndarray:
    """Sum of m conjugated by every permutation of its n slots.

    The sum over S_n is the product over k = 2..n of the coset sums
    e + sum_{j<k} (j k) of S_k over S_{k-1}, applied in turn: n(n-1)/2
    transposition conjugations in place of n! permutations.  Each stage
    copies its input into one of two buffers and adds transposed views.
    """
    shape = (d,) * (2 * n)
    acc, bufs = m, (np.empty(m.shape, m.dtype), np.empty(m.shape, m.dtype))
    for k in range(1, n):
        total = bufs[k % 2]
        np.copyto(total, acc)
        src, view = acc.reshape(shape), total.reshape(shape)
        for j in range(k):
            view += src.transpose(_slot_axes(_transposition(n, j, k), n))
        acc = total
    return acc


def symmetrize(op: ManyBodyOperator) -> ManyBodyOperator:
    """Average of op over all particle-permutation conjugations."""
    n = len(op.labels)
    if n <= 1:
        return op
    acc = _permutation_sum(op.matrix, n, op.dim_single)
    return ManyBodyOperator(op.labels, op.dim_single, acc / factorial(n))


def _peak(x: np.ndarray) -> float:
    """The largest |Re| or |Im| of an entry of x."""
    return float(np.abs(np.asarray(x, complex).reshape(-1).view(float)).max())


def scaled_hermitian_defect(m: np.ndarray) -> tuple[float, float, float]:
    """||m - m^dagger||_F and ||m||_F, each divided by c, and c itself.

    c is the largest |Re| or |Im| of an entry (1 for the zero matrix), so
    neither norm can overflow however large the entries are.  The real and
    imaginary parts are scaled apart: complex division by a subnormal c
    would overflow in its reciprocal.  The entries of m must be finite.
    """
    scale = _peak(m) or 1.0
    re, im = m.real / scale, m.imag / scale
    dev = np.hypot(np.linalg.norm(re - re.T), np.linalg.norm(im + im.T))
    return float(dev), float(np.hypot(np.linalg.norm(re), np.linalg.norm(im))), scale


def require_hermitian(m: np.ndarray, what: str) -> None:
    """Refuse m, by a ValueError naming what, unless its entries are finite
    and ||m - m^dagger||_F <= TAU_HERM ||m||_F."""
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what}: matrix entries must be finite")
    # the scale cancels in the quoted ratio, which cannot overflow
    dev, norm, _ = scaled_hermitian_defect(m)
    if dev > TAU_HERM * norm:
        raise ValueError(
            f"{what} must be Hermitian: ||m - m^dagger||_F = {dev / norm:.3e} "
            f"||m||_F exceeds {TAU_HERM:g} ||m||_F"
        )


def require_exchange_symmetric(m: np.ndarray, d: int, what: str) -> None:
    """Refuse m, a matrix on slots of dimension d, by a ValueError naming
    what, unless max|m - Sym m| <= (TAU_HERM / 2) max|m|, where Sym m is the
    average of m over particle-permutation conjugations.

    With A = m - Sym m, each m - P m P^dagger is P A P^dagger - A and A is
    their average, so the largest permutation defect W lies between max|A|
    and 2 max|A|: every m accepted has W <= TAU_HERM max|m|, and every m
    with W <= (TAU_HERM / 2) max|m| is accepted.  m is first scaled by a
    power of two, which is exact, so that the n! growth of the permutation
    sum cannot overflow and the verdict does not change when m is rescaled.
    The entries of m must be finite.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    x = np.ldexp(m.view(float), -frexp(_peak(m))[1]).view(complex)
    n = round(log(len(x), d))
    dev = float(np.abs(x - _permutation_sum(x, n, d) / factorial(n)).max())
    top = float(np.abs(x).max())
    if dev > TAU_HERM / 2 * top:
        raise ValueError(
            f"{what} is not exchange-symmetric: max|m - Sym m| = "
            f"{dev / top:.3e} max|m| exceeds {TAU_HERM / 2:g} max|m|"
        )


@lru_cache(maxsize=None)
def _swap_blocks(d: int, n: int) -> tuple:
    """The blocks of the joint eigenbasis of the pair swaps (1 2), (3 4), ...
    of n slots of dimension d, one per pattern of signs, +1 first.
    ``_swap_blocks(D, 1)`` is one block, the identity basis on D indices.

    A pair's swap has the +1 vectors e_ii and (e_ij + e_ji)/sqrt(2) and the
    -1 vectors (e_ij - e_ji)/sqrt(2), i < j, on the pair's d^2 indices; each
    is written weight (e_x + sign e_y), e_ii as 0.5 (e_ii + e_ii).  An
    unpaired last slot keeps e_i.  A block is (idx, signs, weight, back,
    back_coef), its vectors' terms multiplied out over the pairs: vector r
    is weight[r] sum_a signs[a] e_{idx[a, r]}, and entry x of the block's
    vectors is back_coef[x] times their component back[x] (0 when no vector
    of the block has an entry at x).
    """
    s = np.sqrt(0.5)
    diag, (i, j) = np.arange(d) * (d + 1), np.triu_indices(d, 1)
    ij, ji, off = i * d + j, j * d + i, np.full(i.size, s)
    plus = (
        np.stack([np.r_[diag, ij], np.r_[diag, ji]]),
        np.array([1.0, 1.0]),
        np.r_[np.full(d, 0.5), off],
    )
    minus = (np.stack([ij, ji]), np.array([1.0, -1.0]), off)
    factors = [(d * d, (plus, minus))] * (n // 2)
    if n % 2:
        factors.append((d, ((np.arange(d)[None], np.ones(1), np.ones(d)),)))
    blocks = []
    for parts in itertools.product(*(options for _, options in factors)):
        idx, signs, weight = np.zeros((1, 1), np.intp), np.ones(1), np.ones(1)
        for (size, _), (f_idx, f_signs, f_weight) in zip(factors, parts):
            # the terms and vectors so far, each times those of this factor
            shape = (idx.shape[0] * f_idx.shape[0], idx.shape[1] * f_idx.shape[1])
            idx = (idx[:, None, :, None] * size + f_idx[None, :, None, :]).reshape(shape)
            signs = np.multiply.outer(signs, f_signs).ravel()
            weight = np.multiply.outer(weight, f_weight).ravel()
        if not weight.size:
            continue
        back, back_coef = np.zeros(d**n, np.intp), np.zeros(d**n)
        back[idx] = np.arange(weight.size)
        np.add.at(back_coef, idx, np.multiply.outer(signs, weight))
        block = (idx, signs, weight, back, back_coef)
        for a in block:  # cached: every caller reads the same arrays
            a.setflags(write=False)
        blocks.append(block)
    return tuple(blocks)


def _signed_sum(x: np.ndarray, idx: np.ndarray, signs: np.ndarray, axis: int) -> np.ndarray:
    """sum_a signs[a] x.take(idx[a], axis), in a fresh array."""
    acc = np.take(x, idx[0], axis=axis)
    for i, sign in zip(idx[1:], signs[1:]):
        (np.add if sign > 0 else np.subtract)(acc, np.take(x, i, axis=axis), out=acc)
    return acc


def _scale(x: np.ndarray, coef: np.ndarray, axis: int) -> np.ndarray:
    """x, a fresh C-ordered matrix, times the real coef[i] at index i of the
    axis, in place.  A complex x is scaled as its float view, real and
    imaginary parts apart: a complex product would turn an entry's -0.0
    into +0.0, so the identity basis would not return x as it is."""
    flat = x
    if np.iscomplexobj(x):
        flat, coef = x.view(float), np.repeat(coef, 2) if axis else coef
    flat *= coef if axis else coef[:, None]
    return x


def into_swap_basis(x: np.ndarray, basis: tuple, axis: int) -> np.ndarray:
    """Q^T x (axis 0) or x Q (axis 1), Q the vectors of one block of
    :func:`_swap_blocks`: a signed sum of at most two takes per pair, weighted."""
    idx, signs, weight, _, _ = basis
    return _scale(_signed_sum(x, idx, signs, axis), weight, axis)


def out_of_swap_basis(y: np.ndarray, basis: tuple, axis: int) -> np.ndarray:
    """Q y (axis 0) or y Q^T (axis 1), Q the vectors of one block of
    :func:`_swap_blocks`: one take, entry x scaled by the block's back_coef[x]."""
    _, _, _, back, back_coef = basis
    return _scale(np.take(y, back, axis=axis), back_coef, axis)


def swap_blocks_of(x: np.ndarray, bases: Sequence[tuple]) -> dict:
    """{(b, c): Q_b^T x Q_c} for the bases Q_b, entries of :func:`_swap_blocks`.

    A matrix that commutes with the pair swaps is block diagonal in their
    basis, so when every pair b != c lies within 16 eps max|x| of zero, each
    read as the largest |Re| or |Im|, only the pairs b = c are kept; when
    any lies beyond, x keeps every pair, exactly.
    """
    parts = {}
    for b, qb in enumerate(bases):
        rows = into_swap_basis(x, qb, 0)
        for c, qc in enumerate(bases):
            parts[b, c] = into_swap_basis(rows, qc, 1)
    bound = 16 * np.finfo(float).eps * _peak(x)
    if any(_peak(y) > bound for (b, c), y in parts.items() if b != c):
        return parts
    return {(b, b): parts[b, b] for b in range(len(bases))}


def from_swap_blocks(parts: dict, bases: Sequence[tuple]) -> np.ndarray:
    """sum over (b, c) of Q_b y_bc Q_c^T, the inverse of :func:`swap_blocks_of`:
    one take per axis and block."""
    rows = {}
    for (b, c), y in parts.items():
        y = out_of_swap_basis(y, bases[c], 1)
        if b in rows:
            rows[b] += y
        else:
            rows[b] = y
    total = None
    for b, y in rows.items():
        y = out_of_swap_basis(y, bases[b], 0)
        if total is None:
            total = y
        else:
            total += y
    return total


def swap_block_spectrum(m: np.ndarray, d: int, n: int, vectors: bool = True) -> tuple:
    """The spectrum of a Hermitian matrix m on n slots of dimension d, one
    block of the pair swaps' joint eigenbasis at a time.

    A particle-permutation symmetric m commutes with the swaps (1 2), (3 4),
    ..., so Q^T m Q is block diagonal in their real orthogonal eigenbasis Q
    (:func:`_swap_blocks`; blocks of 100, 60, 60 and 36 at d = 4, n = 4).
    The blocks are the diagonal pairs of :func:`swap_blocks_of`, formed by
    index arithmetic with no product by Q, and each goes to
    ``np.linalg.eigh``, or ``eigvalsh`` without vectors.  When
    :func:`swap_blocks_of` keeps a pair b != c, which the round-off of a
    symmetric sum does not reach, m is one block of the identity basis, and
    numpy sees it whole, as it is.

    Returns one (lam, w, basis) per block: its eigenvalues, ascending, the
    columns of w its eigenbasis in the block's basis (None without
    vectors), and basis its entry of :func:`_swap_blocks`.
    """
    bases = _swap_blocks(d, n)
    parts = swap_blocks_of(m, bases)
    if len(parts) > len(bases):
        bases, parts = _swap_blocks(len(m), 1), {(0, 0): m}
    eig = np.linalg.eigh if vectors else lambda a: (np.linalg.eigvalsh(a), None)
    return tuple((*eig(parts[b, b]), basis) for b, basis in enumerate(bases))


def min_eigenvalue(op: ManyBodyOperator) -> float:
    herm = (op.matrix + op.matrix.conj().T) / 2
    return float(np.linalg.eigvalsh(herm)[0])
