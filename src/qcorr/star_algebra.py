"""The algebra of operator sequences under the subset tensor product.

An :class:`OperatorSequence` is a finite family (f_0, f_1, f_2, ..., f_N)
where f_0 is a scalar and f_n acts on the canonical labels (1..n).  The
star product convolves two sequences over subsets of the labels,

    (f * h)_n(Y) = sum_{Z subset of Y} f_|Z|(Z) h_{n-|Z|}(Y \\ Z).

Exp(f)_n sums f-block products over the set partitions of (1..n), and
Ln(D)_n the Mobius-weighted D-block products.  Both are exact finite sums,
computed by one recursion that groups the partitions by the block {1} u S
holding the first unit:

    Exp(f)_n = sum_{S subset of (2..n)} f_{1+|S|}({1} u S) Exp(f)_{n-1-|S|}(rest),
    D_{s+n} = sum_{S subset of (s+1..s+n)} kappa_|S|((1..s) u S) D_{n-|S|}(rest),

where kappa_n, the Mobius sum over the units (1..s), s+1, ..., s+n, is the
S = all term, and Ln(D)_n = kappa_{n-1} at s = 1.  Each partition term
appears exactly once; a component with no term stays absent.  The
recursion runs on the matrices of already-checked components: one outer
product per block size, each subset term a transposed view of it added in
place, and each output component is wrapped in a ManyBodyOperator once.

Sequences may carry a cluster prefix of size s: component n then acts on
(1..s+n) with the first s labels frozen as one unit.  Prefixed sequences
arise in the reduced dynamics and from the shift maps; in star products
the prefix always stays with its factor while ordinary labels distribute.
The reduction map ``annihilation_expand`` (the e-to-the-a aggregate of
partial traces) only ever traces ordinary particles.  The shift maps, the
cluster-argument reading and the lemma checks are reference routes in
:mod:`qcorr.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable
from math import factorial

import numpy as np

from .errors import NormalizationError
from .operators import (
    ManyBodyOperator,
    _kron_view,
    _slot_axes,
    partial_trace_matrix,
    relabel,
    tensor_product,
    zero_operator,
)
from .partitions import ParticleSet


@dataclass(frozen=True, eq=False)
class OperatorSequence:
    """Finite operator sequence with optional cluster prefix.

    components maps the ordinary-particle count n to an operator on the
    canonical labels (1..prefix+n).  Missing entries are zero.  For plain
    sequences (prefix 0) component 0 is the scalar ``scalar0``; for
    prefixed sequences component 0 is an operator on the prefix itself and
    scalar0 must be 0.
    """

    dim_single: int
    n_max: int
    scalar0: complex = 0.0
    components: dict[int, ManyBodyOperator] = field(default_factory=dict)
    prefix: int = 0

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        if self.prefix < 0:
            raise ValueError(f"prefix must be >= 0, got {self.prefix}")
        object.__setattr__(self, "scalar0", complex(self.scalar0))
        if self.prefix and self.scalar0 != 0:
            raise ValueError("a prefixed sequence has no scalar component")
        comps = {}
        lo = 0 if self.prefix else 1
        for n, op in sorted(self.components.items()):
            n = int(n)
            if not lo <= n <= self.n_max:
                raise ValueError(
                    f"component index {n} outside [{lo}, {self.n_max}]"
                )
            want = ParticleSet.range1(self.prefix + n)
            if op.labels != want:
                raise ValueError(
                    f"component {n} must act on {want}, got {op.labels}"
                )
            if op.dim_single != self.dim_single:
                raise ValueError("components must share dim_single")
            comps[n] = op
        object.__setattr__(self, "components", comps)

    def component(self, n: int) -> ManyBodyOperator:
        """Component n, materializing zeros for unset entries."""
        got = self.components.get(n)
        if got is not None:
            return got
        return zero_operator(ParticleSet.range1(self.prefix + n), self.dim_single)

    def has(self, n: int) -> bool:
        return n in self.components

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def __repr__(self) -> str:
        tag = f", prefix={self.prefix}" if self.prefix else ""
        return (
            f"OperatorSequence(d={self.dim_single}, n_max={self.n_max}, "
            f"support={self.support}{tag})"
        )


def seq_block_product(
    seq: OperatorSequence, blocks: Iterable[ParticleSet]
) -> ManyBodyOperator | None:
    """Tensor product over disjoint blocks of seq components moved onto them.

    Block B carries component |B| of the plain sequence seq, relabelled
    onto B.  None when one of those components is missing (zero).
    """
    parts = []
    for block in blocks:
        if not seq.has(len(block)):
            return None
        parts.append(relabel(seq.components[len(block)], block))
    return tensor_product(parts)


def _ordinary_labels(prefix: int, n: int) -> tuple[int, ...]:
    return tuple(range(prefix + 1, prefix + n + 1))


def _first_block_sum(a: dict, b: dict, s: int, n: int, d: int) -> np.ndarray | None:
    """Sum over S subset of (s+1..s+n) of a_|S| on (1..s) u S times b_{n-|S|}.

    a_k is a matrix on (1..s+k) and b_m one on (1..m); each is moved in
    order onto its labels, (1..s) u S and the rest.  A missing key is a
    zero factor, so S = all counts only when b holds b_0, a 1x1 scalar.
    The matrix on (1..s+n), or None when no S finds both of its factors.
    Each a_k b_{n-k} has d^{2(s+n)} entries, so one buffer, of the dtype of
    the factors, holds each in turn.
    """
    pairs = [k for k in range(n + 1) if k in a and n - k in b]
    if not pairs:
        return None
    head = tuple(range(1, s + 1))
    ordinary = _ordinary_labels(s, n)
    dtype = np.result_type(*(a[k] for k in pairs), *(b[n - k] for k in pairs))
    acc, buf = None, np.empty(d ** (2 * (s + n)), dtype=dtype)
    for k in pairs:
        x, y = a[k], b[n - k]
        big = np.multiply.outer(x, y, out=buf.reshape(x.shape + y.shape))
        ab = _kron_view(big, d, s + n)
        for z in itertools.combinations(ordinary, k):
            rest = tuple(q for q in ordinary if q not in z)
            term = ab.transpose(_slot_axes(np.argsort(head + z + rest), s + n))
            acc = term.copy() if acc is None else np.add(acc, term, out=acc)
    return acc.reshape(d ** (s + n), d ** (s + n))


def star_product(
    f: OperatorSequence, h: OperatorSequence, out_n_max: int | None = None
) -> OperatorSequence:
    """Subset convolution of two sequences.

    At most one factor may carry a prefix; the prefix rides with that
    factor and only ordinary labels are distributed over subsets.  With
    ``out_n_max = f.n_max + h.n_max`` the product of finitely supported
    sequences is exact; the default cut is min(f.n_max, h.n_max).
    Components that sum to exact zeros are dropped.
    """
    if f.dim_single != h.dim_single:
        raise ValueError("mixed single-particle dimensions")
    if f.prefix and h.prefix:
        raise ValueError("cannot star-multiply two prefixed sequences")
    if h.prefix:
        return star_product(h, f, out_n_max)
    d, s = f.dim_single, f.prefix
    out = min(f.n_max, h.n_max) if out_n_max is None else out_n_max
    a, b = ({n: op.matrix for n, op in x.components.items()} for x in (f, h))
    if f.scalar0 != 0:
        a[0] = np.array([[f.scalar0]])
    if h.scalar0 != 0:
        b[0] = np.array([[h.scalar0]])
    comps: dict[int, ManyBodyOperator] = {}
    for n in range(0 if s else 1, out + 1):
        m = _first_block_sum(a, b, s, n, d)
        if m is not None and np.any(m):
            comps[n] = ManyBodyOperator(ParticleSet.range1(s + n), d, m)
    scalar = 0.0 if s else f.scalar0 * h.scalar0
    return OperatorSequence(d, out, scalar, comps, s)


def star_exp(f: OperatorSequence, out_n_max: int | None = None) -> OperatorSequence:
    """Exponential under the star product; an exact finite sum.

    Requires a plain sequence with zero scalar component.  Component n is
    the first-block recursion over the block {1} u S that holds particle 1:
    f_{1+|S|} on it times the earlier component n-1-|S| on the rest.
    """
    if f.prefix:
        raise ValueError("star_exp is defined for plain sequences")
    if f.scalar0 != 0:
        raise ValueError("star_exp requires a vanishing scalar component")
    d = f.dim_single
    out = f.n_max if out_n_max is None else out_n_max
    first = {n - 1: op.matrix for n, op in f.components.items()}
    e = {0: np.array([[1.0 + 0j]])}
    for n in range(1, out + 1):
        m = _first_block_sum(first, e, 1, n - 1, d)
        if m is not None:
            e[n] = m
    comps = {n: ManyBodyOperator(ParticleSet.range1(n), d, m) for n, m in e.items() if n}
    return OperatorSequence(d, out, 1.0, comps)


def _cluster_arguments(f: OperatorSequence, s: int, n_max: int) -> dict[int, np.ndarray]:
    """The present components kappa_0..kappa_{n_max} of the s-cluster reading.

    kappa_n = f_{s+n} minus the first-block sum of the earlier kappa against
    f's components, a matrix; f's scalar is never read, so S = all drops out.
    """
    fm = {n: op.matrix for n, op in f.components.items()}
    kappa: dict[int, np.ndarray] = {}
    for n in range(n_max + 1):
        top = fm.get(s + n)
        lower = _first_block_sum(kappa, fm, s, n, f.dim_single)
        if lower is not None:
            top = -lower if top is None else top - lower
        if top is not None:
            kappa[n] = top
    return kappa


def star_ln(g: OperatorSequence, out_n_max: int | None = None) -> OperatorSequence:
    """Logarithm under the star product, inverse of star_exp.

    Requires a plain sequence of the form 1 + h (scalar component one).
    Component n is kappa_{n-1} at s = 1 of the module docstring.
    """
    if g.prefix:
        raise ValueError("star_ln is defined for plain sequences")
    if abs(g.scalar0 - 1.0) > 1e-12:
        raise ValueError("star_ln requires scalar component 1")
    d = g.dim_single
    out = g.n_max if out_n_max is None else out_n_max
    kappa = _cluster_arguments(g, 1, out - 1)
    comps = {n + 1: ManyBodyOperator(ParticleSet.range1(n + 1), d, m) for n, m in kappa.items()}
    return OperatorSequence(d, out, 0.0, comps)


def annihilation_component(f: OperatorSequence, s: int) -> ManyBodyOperator:
    """Component s of :func:`annihilation_expand`, computed on its own.

    The sum over n of (1/n!) times f_{s+n} with its last n ordinary
    particles traced out, accumulated in ascending n; the zero operator
    when f has no component at or above s.
    """
    p = f.prefix
    d = f.dim_single
    acc = None
    for n in range(0, f.n_max - s + 1):
        if not f.has(s + n):
            continue
        # the last n ordinary slots of (1..p+s+n)
        traced = range(p + s, p + s + n)
        m = f.components[s + n].matrix
        term = partial_trace_matrix(m, d, p + s + n, traced) / factorial(n)
        acc = term if acc is None else acc + term
    if acc is None:
        return zero_operator(ParticleSet.range1(p + s), d)
    return ManyBodyOperator(ParticleSet.range1(p + s), d, acc)


def annihilation_scalar(f: OperatorSequence) -> complex:
    """Scalar of the reduction of a plain sequence: f_0 + sum_n tr(f_n) / n!."""
    if f.prefix:
        raise ValueError("a prefixed sequence has no reduction scalar")
    scalar = f.scalar0
    for n in range(1, f.n_max + 1):
        if f.has(n):
            scalar = scalar + f.components[n].trace / factorial(n)
    return scalar


def annihilation_expand(f: OperatorSequence) -> OperatorSequence:
    """Aggregate of weighted partial traces.

    Component s of the result is :func:`annihilation_component`; it is
    present exactly when f has a component at or above s.  On prefixed
    sequences only ordinary particles are traced and the prefix survives
    untouched; plain sequences also get :func:`annihilation_scalar`.
    """
    top = max(f.components, default=-1)
    comps = {
        s: annihilation_component(f, s)
        for s in range(0 if f.prefix else 1, top + 1)
    }
    scalar = f.scalar0 if f.prefix else annihilation_scalar(f)
    return OperatorSequence(f.dim_single, f.n_max, scalar, comps, f.prefix)


_NORM_FLOOR = 1e-12


def require_normalizable(z: complex) -> complex:
    """z itself, or NormalizationError when it is too small to divide by."""
    if abs(z) < _NORM_FLOOR:
        raise NormalizationError(f"normalization scalar {z} vanishes")
    return z
