"""Reduced s-particle operators, their solution formulas, and observables.

A marginal F_s compresses a density sequence: the weighted sum of partial
traces of all higher components, divided by the reduction scalar (the
grand-canonical normalization).  Because every state here is cut at n_max,
all series are exact finite sums.

`qcorr run` reduces the density it evolves once per run, as
:func:`reduce_from_density` reduces a density sequence.  The paper's
cumulant solution formula, un-reduce/evolve/reduce for one s
(:func:`solve_bbgky_cumulant`), is the reference route that the run's
F_s(t) must equal on exchange-symmetric data.  The module also holds the
time-ordered iteration series with numerical quadrature, which solves
every s of one time in one call by one descent from each F_m and one
collision kernel, and the particle-number / dispersion observables.  The
third route (reduce the evolved correlation sequence), the literal
cumulant sum and the correlation operators G_s are reference routes in
:mod:`qcorr.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .evolution import (
    DensityFlow,
    eigenbasis_parts,
    evolve_parts,
    group_apply,
    make_unitary_group,
    phases,
)
from .hamiltonian import SystemSpec
from .hierarchy import DensityState
from .operators import (
    ManyBodyOperator,
    embed_sum,
    into_swap_basis,
    out_of_swap_basis,
    partial_trace_matrix,
)
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
    """How to integrate the time-ordered iteration terms: the series order
    and the Gauss-Legendre nodes on each level of the simplex."""

    order: int
    nodes_per_dim: int

    def __post_init__(self):
        if not 0 <= self.order <= 3:
            raise ValueError(f"iteration order must be in [0, 3], got {self.order}")
        if not 4 <= self.nodes_per_dim <= 64:
            raise ValueError(
                f"nodes_per_dim must be in [4, 64], got {self.nodes_per_dim}"
            )


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

    Exact without exchange symmetry; F_s itself at t = 0.
    """
    seq = f0.seq
    if not 1 <= s <= seq.n_max:
        raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    if t == 0.0:
        return seq.component(s)
    d = seq.dim_single
    unreduced: dict[int, np.ndarray] = {}
    for n in range(seq.n_max - s + 1):
        if not seq.has(s + n):
            continue
        f_sn = seq.components[s + n].matrix
        for r in range(n + 1):
            weight = (-1) ** r * factorial(n - r) / factorial(n)
            # the slots of the labels (s+1..s+n) of F_{s+n}
            for traced in itertools.combinations(range(s, s + n), r):
                term = partial_trace_matrix(f_sn, d, s + n, traced)
                unreduced[n - r] = unreduced.get(n - r, 0) + term * weight
    moved = {}
    for k, e in sorted(unreduced.items()):
        ug = make_unitary_group(spec, ParticleSet.range1(s + k))
        moved[k] = group_apply(ug, t, ManyBodyOperator(ug.labels, d, e))
    return annihilation_component(OperatorSequence(d, seq.n_max - s, 0.0, moved, s), 0)


def _embedded_group_conj(
    spec: SystemSpec, full: ParticleSet, sub_n: int, tau: float, x: ManyBodyOperator
) -> ManyBodyOperator:
    """Conjugate x by the propagator of its labels ``full`` (= 1..sub_n),
    by :func:`qcorr.evolution.group_apply`.

    A reference route, which the series' descent no longer calls; it keeps
    five arguments because the benchmark's layer tracer wraps this name.
    """
    if sub_n != len(full):
        raise ValueError(f"the propagator of {sub_n} particles does not act on {full}")
    return group_apply(make_unitary_group(spec, full), tau, x)


def _collision_level(spec: SystemSpec, ug) -> tuple:
    """(ug, C, L, C^*, L^*) for :func:`_collision` on H_m's group ug: per
    block b, L_b = Q_b W_b and C_b = V_m L_b, V_m = sum_{i<m} Phi(i, m), and
    each adjoint as a (d s_b) x (D/d) matrix whose row (k, r) is its row r
    at the columns k, k + d, ..., so that Tr_m takes one product."""
    d, m = spec.dim_single, len(ug.labels)
    v = embed_sum([((i, m), spec.potentials[2]) for i in range(1, m)], ParticleSet.range1(m), d)
    ls = [out_of_swap_basis(w, basis, 0) for _, w, basis in ug.blocks]
    cs = [into_swap_basis(v, basis, 1) @ w for _, w, basis in ug.blocks]

    def adjoint(a):
        return a.conj().reshape(len(a) // d, d, -1).transpose(1, 2, 0).reshape(-1, len(a) // d)

    return ug, cs, ls, [adjoint(c) for c in cs], [adjoint(x) for x in ls]


def _collision(level: tuple, parts: dict, hermitian: bool, tau: float) -> np.ndarray:
    """Tr_m of -(i/hbar)[V_m, X], X = G_m(tau) x, from x's
    :func:`qcorr.evolution.eigenbasis_parts` and the factors of
    :func:`_collision_level`, particle m being the last tensor factor.

    X = sum over the pairs of L_b (p_b x~_bc p_c^*) L_c^*, p = ``phases``,
    so Tr_m(V_m X) = sum_c Tr_m(M_c L_c^*), M_c = sum_b C_b (p_b x~_bc p_c^*),
    and for the Hermitian V_m Tr_m(X V_m) is the same with L and C swapped,
    or Tr_m(V_m X)^* when x is Hermitian.  Per pair one D x s_b by s_b x s_c
    product, and per block one product of M_c, read as D/d rows of d s_c,
    by the adjoint: D^2 s_c/d flops, not the D^3 of a full V_m X.
    """
    ug, cs, ls, cs_adj, ls_adj = level
    ps = phases(ug, tau)
    moved = {(b, c): (ps[b][:, None] * x) * ps[c].conj() for (b, c), x in parts.items()}

    def traced(left, right):
        rows = {}
        for (b, c), y in moved.items():
            rows[c] = rows[c] + left[b] @ y if c in rows else left[b] @ y
        d = ug.dim_single
        return sum(z.reshape(len(z) // d, -1) @ right[c] for c, z in rows.items())

    vx = traced(cs, ls_adj)
    xv = vx.conj().T if hermitian else traced(ls, cs_adj)
    return (-1j / ug.hbar) * (vx - xv)


@lru_cache(maxsize=None)
def _legendre_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k Gauss-Legendre nodes and weights on [-1, 1], read-only: every
    interval of every solve shares them."""
    x, w = np.polynomial.legendre.leggauss(k)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _interval_nodes(q: QuadratureSpec, lo: float, hi: float) -> list[tuple[float, float]]:
    """(node, weight) pairs of the ``nodes_per_dim``-node Gauss-Legendre rule
    on the oriented interval [lo, hi]; weights are negative for hi < lo, and
    zero weights (an empty interval) are dropped.
    """
    x, w = _legendre_rule(q.nodes_per_dim)
    half = (hi - lo) / 2.0
    pairs = zip((lo + (x + 1.0) * half).tolist(), (w * half).tolist())
    return [(node, w) for node, w in pairs if w != 0.0]


def require_two_body(spec: SystemSpec) -> None:
    """Refuse a system on which the iteration series is not defined."""
    if set(spec.potentials) - {2}:
        raise ValueError("the iteration series is defined for two-body systems")
    if 2 not in spec.potentials:
        raise ValueError("the iteration series needs a two-body potential")


def solve_bbgky_iteration(
    spec: SystemSpec, f0: MarginalState, s_values: list[int], t: float, q: QuadratureSpec
) -> dict[int, ManyBodyOperator]:
    """{s: F_s(t)} for every s in ``s_values``, by the truncated time-ordered
    series with Gauss-Legendre quadrature.

    Defined for systems with a two-body potential only.  Term n of F_s
    integrates, over the ordered simplex 0 <= t_n <= ... <= t_1 <= t, the
    chain in collision-operator form

        G_s(t - t_1) Tr_{s+1} [V_{s+1}, .] G_{s+1}(t_1 - t_2) ...
            Tr_{s+n} [V_{s+n}, .] G_{s+n}(t_n) F_{s+n}

    with V_m = sum_{i<m} Phi(i, m), each G_m the conjugation on particles
    1..m, and the commutator taken as the generator -(i/hbar)[V_m, .].
    The rule nests t_n outermost, on [0, t], and each t_{j-1} on [t_j, t]
    (:func:`_interval_nodes`), so a term is a tree.  No level depends on
    s: a chain from level m passes level j at the same nodes for every s
    below j.  So one descent from each F_m serves every s with
    s <= m <= s + order, and ends the chain of F_s at level s; at m = s
    that end is the zeroth order G_s(t) F_s.  Every collision, at every
    level, is one kernel (:func:`_collision`), whose factors
    (:func:`_collision_level`) are built once per call and level.  Every s
    sums its terms in the order of a solve for it alone, so F_s does not
    depend on the other s requested, to the bit.  Tracing each level out
    at once is exact: every later step acts on particles 1..m-1 only, so
    Tr_m commutes with it.  At t = 0 each F_s is returned as given.
    """
    require_two_body(spec)
    seq = f0.seq
    for s in s_values:
        if not 1 <= s <= seq.n_max:
            raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    if t == 0.0:
        return {s: seq.component(s) for s in s_values}
    levels = {}

    def descend(ends: list[int], m: int, tau: float, x: np.ndarray) -> dict:
        """{s: the chain of F_s} for each s <= m in ``ends``, from x on
        particles 1..m at time tau on to time t.

        The chain of s = m conjugates x with G_m(t - tau).  At each node t'
        of [tau, t] the chains of the s < m descend together from
        Tr_m[V_m, G_m(t' - tau) x] (:func:`_collision`).  x moves into the
        eigenbasis of H_m once, and the chain end and every node read those
        parts.
        """
        ug = make_unitary_group(spec, ParticleSet.range1(m))
        parts = eigenbasis_parts(ug, x)
        hermitian = np.array_equal(x, x.conj().T)
        below = [s for s in ends if s < m]
        if below and m not in levels:
            levels[m] = _collision_level(spec, ug)
        acc = {s: 0 for s in below}
        for node, w in _interval_nodes(q, tau, t) if below else []:
            y = _collision(levels[m], parts, hermitian, node - tau)
            for s, chain in descend(below, m - 1, node, y).items():
                acc[s] = acc[s] + w * chain
        if m in ends:  # from 0, as every sum here, so -0.0 ends as +0.0
            acc[m] = 0 + evolve_parts(ug, parts, t - tau)
        return acc

    d = spec.dim_single
    totals = {s: np.zeros((d**s, d**s), dtype=complex) for s in s_values}
    top = {s: min(s + q.order, seq.n_max) for s in s_values}
    for m in range(1, seq.n_max + 1):
        ends = [s for s in s_values if s <= m <= top[s]]
        if ends and seq.has(m):
            for s, chain in descend(ends, m, 0.0, seq.components[m].matrix).items():
                totals[s] = totals[s] + chain
    return {s: ManyBodyOperator(ParticleSet.range1(s), d, m) for s, m in totals.items()}


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


def _additive(a1: np.ndarray, n: int, dim: int) -> np.ndarray:
    """A_n = sum_i a(i) on particles 1..n."""
    ground = ParticleSet.range1(n)
    return embed_sum([((i,), np.asarray(a1, dtype=complex)) for i in ground], ground, dim)


def flow_observable_moments(
    flow: DensityFlow, a1: np.ndarray, times: list[float], z: complex
) -> list[tuple[float, float, float]]:
    """(mean particle number, first, second moment) of flow.at(t) for each t.

    The moments of :func:`additive_observable_moment`, in the eigenbasis of
    each H_n, one pair of its pair-swap blocks at a time.  A~_n, the
    :func:`qcorr.evolution.eigenbasis_parts` of A_n, is formed once, and
    A_n's exchange symmetry makes it block diagonal, so only the diagonal
    blocks of D~_n count: Tr(A_n^k D_n(t)) = Tr(A~_n^k (P o D~_n)) = sum over
    the blocks b of p_b^T ((A~_n)_bb^k)^T o (D~_n)_bb) p_b^*, O(D^2) per
    time.  The particle number, sum_n n tr D_n / n! over z, does not move.
    z is the reduction scalar of flow.d0, which the caller sums and refuses
    when it vanishes.
    """
    number, moments = 0.0, np.zeros((2, len(times)), dtype=complex)
    for n, (ug, dt) in flow.parts.items():
        a = eigenbasis_parts(ug, _additive(a1, n, flow.d0.dim_single))
        ps = phases(ug, np.array(times)[:, None])  # per block, a row per time
        number += n * np.trace(flow.d0.components[n].matrix) / factorial(n)
        for b, pb in enumerate(ps):
            for k, x in enumerate((a[b, b], a[b, b] @ a[b, b])):
                moments[k] += ((pb @ (x.T * dt[b, b])) * pb.conj()).sum(axis=1) / factorial(n)
    return [tuple(float((x / z).real) for x in (number, *m)) for m in moments.T]


def additive_observable_moment(
    d: DensityState, a1: np.ndarray, power: int
) -> float:
    """Moment ``power`` (1 or 2) of the additive observable A_n = sum_i a(i),
    from the density: the normalized 1/n!-weighted sum of Tr(A_n^power D_n)."""
    if power not in (1, 2):
        raise ValueError("only first and second moments are supported")
    seq = d.seq
    z = require_normalizable(annihilation_scalar(seq))
    total = 0.0 + 0.0j
    for n, op in seq.components.items():
        a_n = _additive(a1, n, seq.dim_single)
        a_n = a_n if power == 1 else a_n @ a_n
        total += np.sum(a_n.T * op.matrix) / factorial(n)
    return float((total / z).real)
