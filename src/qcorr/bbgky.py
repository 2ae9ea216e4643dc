"""Reduced s-particle operators, their solution formulas, and observables.

A marginal F_s compresses a density sequence: the weighted sum of partial
traces of all higher components, divided by the reduction scalar (the
grand-canonical normalization).  Because every state here is cut at n_max,
all series are exact finite sums.

The module carries two independent routes to F_s(t):

* reduce the evolved density sequence            (:func:`reduce_from_density`)
* the cumulant formula, un-reduce/evolve/reduce  (:func:`solve_bbgky_cumulant`)

plus a time-ordered iteration series with numerical quadrature as a
cross-check, and the particle-number / dispersion observables.  The third
route (reduce the evolved correlation sequence), the literal cumulant sum
and the correlation operators G_s are reference routes in
:mod:`qcorr.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .evolution import _conjugate, group_apply, make_unitary_group
from .hamiltonian import SystemSpec
from .hierarchy import DensityState
from .operators import ManyBodyOperator, embed_sum, partial_trace
from .partitions import ParticleSet
from .star_algebra import (
    OperatorSequence,
    annihilation_component,
    annihilation_expand,
    annihilation_scalar,
    require_normalizable,
)


@dataclass(frozen=True)
class MarginalState:
    """Sequence of reduced operators F_s, scalar component 1."""

    seq: OperatorSequence

    def __post_init__(self):
        if self.seq.prefix != 0:
            raise ValueError("marginal states are plain sequences")
        if self.seq.scalar0 != 1:
            raise ValueError("a marginal sequence has scalar component 1")


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate the time-ordered iteration terms."""

    order: int
    nodes_per_dim: int
    rule: str = "gauss-legendre-simplex"

    def __post_init__(self):
        if not 0 <= self.order <= 3:
            raise ValueError(f"iteration order must be in [0, 3], got {self.order}")
        if not 4 <= self.nodes_per_dim <= 64:
            raise ValueError(
                f"nodes_per_dim must be in [4, 64], got {self.nodes_per_dim}"
            )
        if self.rule not in ("gauss-legendre-simplex", "nested-trapezoid"):
            raise ValueError(f"unknown quadrature rule {self.rule!r}")


def marginal_state_from_density(d: DensityState) -> MarginalState:
    """All reduced components at once."""
    red = annihilation_expand(d.seq)
    z = require_normalizable(red.scalar0)
    comps = {n: op / z for n, op in red.components.items()}
    return MarginalState(OperatorSequence(d.seq.dim_single, d.seq.n_max, 1.0, comps))


def reduce_from_density(d: DensityState, s: int) -> ManyBodyOperator:
    """F_s from a density sequence: normalized aggregate of partial traces."""
    if not 1 <= s <= d.seq.n_max:
        raise ValueError(f"s must be in [1, {d.seq.n_max}], got {s}")
    z = require_normalizable(annihilation_scalar(d.seq))
    return annihilation_component(d.seq, s) / z


def solve_bbgky_cumulant(
    spec: SystemSpec, f0: MarginalState, s: int, t: float
) -> ManyBodyOperator:
    """F_s(t) by the cumulant solution formula, through its factorization.

    Term n of the formula traces n particles, with weight 1/n!, out of the
    (1+n)-cluster cumulant ((1..s) fused) applied to F_{s+n}.  A block of
    traced particles alone drops out under the trace, and the Mobius weights
    over partitions of the traced-away set R sum to (-1)^|R|, so the sum is
    the reduction of the s-prefixed sequence U_{s+k}(t) E_k U_{s+k}(t)^* with

        E_k = sum over n >= k and the (n-k)-subsets R of (s+1..s+n) of
              (-1)^(n-k) (k!/n!) Tr_R F_{s+n}, relabelled onto (1..s+k).

    Exact without exchange symmetry; at t = 0 this returns F_s itself.
    """
    seq = f0.seq
    if not 1 <= s <= seq.n_max:
        raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    if t == 0.0:
        return seq.component(s)
    unreduced: dict[int, np.ndarray] = {}
    for n in range(seq.n_max - s + 1):
        if not seq.has(s + n):
            continue
        for r in range(n + 1):
            weight = (-1) ** r * factorial(n - r) / factorial(n)
            for traced in itertools.combinations(range(s + 1, s + n + 1), r):
                term = partial_trace(seq.components[s + n], ParticleSet(traced))
                unreduced[n - r] = unreduced.get(n - r, 0) + term.matrix * weight
    d = seq.dim_single
    moved = {}
    for k, m in unreduced.items():
        e_k = ManyBodyOperator(ParticleSet.range1(s + k), d, m)
        moved[k] = group_apply(make_unitary_group(spec, e_k.labels), t, e_k)
    return annihilation_component(OperatorSequence(d, seq.n_max - s, 0.0, moved, s), 0)


def _embedded_group_conj(
    spec: SystemSpec, full: ParticleSet, sub_n: int, tau: float, x: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate x by the propagator of its labels ``full`` (= 1..sub_n).

    Kept with five arguments because the benchmark's layer tracer wraps
    this name to count the iteration series' lower-level conjugations.
    """
    if sub_n != len(full):
        raise ValueError(f"the propagator of {sub_n} particles does not act on {full}")
    return _conjugate(make_unitary_group(spec, full), tau, x)


def _pair_potential_sums(
    spec: SystemSpec, s: int, depth: int
) -> dict[int, np.ndarray]:
    """V_m = sum_{i<m} Phi(i, m) on particles 1..m, for m = s+1..s+depth."""
    d, phi2 = spec.dim_single, spec.potentials[2]
    return {
        m: embed_sum([((i, m), phi2) for i in range(1, m)], ParticleSet.range1(m), d)
        for m in range(s + 1, s + depth + 1)
    }


def _traced_commutator(v: np.ndarray, x: np.ndarray, d: int, hbar: float) -> np.ndarray:
    """Tr_m of -(i/hbar)[V, X], particle m being the last tensor factor.

    Only the blocks of V X and X V diagonal in m (rows and columns k, k+d,
    ... for each k < d) survive the trace: D^3/d flops per side, not D^3.
    """
    acc = sum(v[k::d] @ x[:, k::d] - x[k::d] @ v[:, k::d] for k in range(d))
    return (-1j / hbar) * acc


def _iteration_integrand(
    spec: SystemSpec, top: tuple, s: int, n: int, t: float, ts: tuple, coupling: dict
) -> np.ndarray:
    """One time-ordered chain at the node times ts = (t_1..t_n), t_0 = t.

    Collision-operator form on arrays.  ``top`` = (lambda, V, V^*, V^* F V)
    is H_{s+n}'s spectrum with F = F_{s+n} in its eigenbasis, so with p =
    exp(-i t_n lambda/hbar) the top level G_{s+n}(t_n) F_{s+n} is the two
    matmuls (V p)(V^* F V p^*) V^*.  Level j = n..1 with m = s + j then
    takes Tr_m of -(i/hbar)[V_m, .] (:func:`_traced_commutator`) and
    conjugates with U_{m-1}(t_{j-1} - t_j) on particles 1..m-1.  Tracing
    each level out at once is exact: every later step acts on particles
    1..m-1 only, so Tr_m commutes with it.
    """
    lam, v, vh, f_eig = top
    p = np.exp(-1j * ts[n - 1] / spec.hbar * lam)
    x = (v * p) @ (f_eig * p.conj()) @ vh
    for j in range(n, 0, -1):
        m = s + j
        x = _traced_commutator(coupling[m], x, spec.dim_single, spec.hbar)
        upper = ts[j - 2] if j >= 2 else t
        rest = ParticleSet.range1(m - 1)
        x = ManyBodyOperator(rest, spec.dim_single, x)
        x = _embedded_group_conj(spec, rest, m - 1, upper - ts[j - 1], x).matrix
    return x


def _nested_nodes(rule: str, nodes: int, upper: float) -> list[tuple[float, float]]:
    """One level of (node, weight) pairs for the interval [0, upper]."""
    if rule == "gauss-legendre-simplex":
        x, w = np.polynomial.legendre.leggauss(nodes)
        pts = (x + 1.0) * (upper / 2.0)
        wts = w * (upper / 2.0)
        return list(zip(pts.tolist(), wts.tolist()))
    # nested-trapezoid: closed uniform rule, degenerate interval gives zero
    if upper == 0.0:
        return [(0.0, 0.0)]
    step = upper / (nodes - 1)
    ends = (0, nodes - 1)
    return [(i * step, step * (0.5 if i in ends else 1.0)) for i in range(nodes)]


def _simplex_nodes(q: QuadratureSpec, n: int, upper: float, weight=1.0, ts=()):
    """(t_1..t_n, weight) over 0 <= t_n <= ... <= t_1 <= upper, nonzero weights."""
    for node, w in _nested_nodes(q.rule, q.nodes_per_dim, upper):
        if weight * w == 0.0:
            continue
        if len(ts) + 1 == n:
            yield ts + (node,), weight * w
        else:
            yield from _simplex_nodes(q, n, node, weight * w, ts + (node,))


def solve_bbgky_iteration(
    spec: SystemSpec, f0: MarginalState, s: int, t: float, q: QuadratureSpec
) -> ManyBodyOperator:
    """F_s(t) by the truncated time-ordered series with numerical quadrature.

    Defined for systems with a two-body potential only.  Term n integrates,
    over the ordered simplex 0 <= t_n <= ... <= t_1 <= t, the chain in
    collision-operator form

        G_s(t - t_1) Tr_{s+1} [V_{s+1}, .] G_{s+1}(t_1 - t_2) ...
            Tr_{s+n} [V_{s+n}, .] G_{s+n}(t_n) F_{s+n}

    with V_m = sum_{i<m} Phi(i, m) built once per solve, each G_m the
    conjugation on particles 1..m, and the commutator taken as the
    generator -(i/hbar)[V_m, .].  F_{s+n} is moved into the eigenbasis of
    H_{s+n} once per term, so the top propagator is a phase there; each
    Tr_m uses only the m-diagonal blocks of the commutator and follows it
    at once (see :func:`_iteration_integrand`).  Only this top level
    conjugates outside evolution's kernel: V^* F V serves every node for
    two D^3 products each, against the kernel's three.
    """
    if set(spec.potentials) - {2}:
        raise ValueError("the iteration series is defined for two-body systems")
    if 2 not in spec.potentials:
        raise ValueError("the iteration series needs a two-body potential")
    seq = f0.seq
    if not 1 <= s <= seq.n_max:
        raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")

    total = group_apply(
        make_unitary_group(spec, ParticleSet.range1(s)), t, seq.component(s)
    ).matrix

    depth = min(q.order, seq.n_max - s)
    coupling = _pair_potential_sums(spec, s, depth)
    for n in range(1, depth + 1):
        if not seq.has(s + n):
            continue
        ug = make_unitary_group(spec, ParticleSet.range1(s + n))
        v, vh = ug.eigenvectors, ug.eigenvectors.conj().T
        top = (ug.eigenvalues, v, vh, vh @ seq.components[s + n].matrix @ v)
        acc = np.zeros((spec.dim_single**s,) * 2, dtype=complex)
        for ts, wt in _simplex_nodes(q, n, t):
            acc = acc + wt * _iteration_integrand(spec, top, s, n, t, ts, coupling)
        total = total + acc
    return ManyBodyOperator(ParticleSet.range1(s), spec.dim_single, total)


def average_particle_number(f: MarginalState) -> float:
    """Trace of F_1; the imaginary part is a numerical defect only."""
    return float(f.seq.component(1).trace.real)


def additive_dispersion(a1: np.ndarray, f: MarginalState) -> float:
    """Variance of the additive observable built from the one-body matrix a1.

    Two exact pieces: the one-particle second moment and the two-particle
    term weighted by F_2 minus the product of marginals.
    """
    seq = f.seq
    if not seq.has(2):
        raise ValueError("dispersion needs the two-particle marginal")
    d = seq.dim_single
    a = np.asarray(a1, dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"observable must be {d}x{d}, got {a.shape}")
    f1 = seq.component(1).matrix
    f2 = seq.component(2).matrix
    one = np.trace(a @ a @ f1)
    pair_weight = f2 - np.kron(f1, f1)
    two = np.trace(np.kron(a, a) @ pair_weight)
    return float((one + two).real)


def additive_observable_moments(d: DensityState, a1: np.ndarray) -> tuple[float, float]:
    """First and second moments of the additive observable, from the density.

    The observable on n particles is A_n = sum_i a(i); each moment is the
    normalized 1/n!-weighted sum of Tr(A_n^power D_n).  Both come from the
    one product A_n D_n: its trace, and its pairing with A_n.
    """
    seq = d.seq
    dim = seq.dim_single
    a = np.asarray(a1, dtype=complex)
    z = require_normalizable(annihilation_scalar(seq))
    first = second = 0.0 + 0.0j
    for n in range(1, seq.n_max + 1):
        if not seq.has(n):
            continue
        ground = ParticleSet.range1(n)
        a_n = embed_sum([((i,), a) for i in ground], ground, dim)
        ad = a_n @ seq.components[n].matrix
        first += np.trace(ad) / factorial(n)
        second += np.sum(a_n.T * ad) / factorial(n)
    return float((first / z).real), float((second / z).real)


def additive_observable_moment(
    d: DensityState, a1: np.ndarray, power: int
) -> float:
    """Moment ``power`` (1 or 2) of :func:`additive_observable_moments`."""
    if power not in (1, 2):
        raise ValueError("only first and second moments are supported")
    return additive_observable_moments(d, a1)[power - 1]
