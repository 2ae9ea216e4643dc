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
every s of one time in one call, and the particle-number / dispersion
observables.  The third route (reduce the evolved correlation sequence),
the literal cumulant sum and the correlation operators G_s are reference
routes in :mod:`qcorr.verify`.
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
    propagate,
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


def _pair_potential_sums(spec: SystemSpec, ms: set[int]) -> dict[int, np.ndarray]:
    """V_m = sum_{i<m} Phi(i, m) on particles 1..m, for each m in ``ms``, ascending."""
    d, phi2 = spec.dim_single, spec.potentials[2]
    return {
        m: embed_sum([((i, m), phi2) for i in range(1, m)], ParticleSet.range1(m), d)
        for m in sorted(ms)
    }


def _trace_last(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """Tr_m(a b), m the last tensor factor: only the blocks of a b diagonal
    in m (rows and columns k, k+d, ... for each k < d) count, D^3/d flops."""
    return sum(a[k::d] @ b[:, k::d] for k in range(d))


def _traced_commutator(v: np.ndarray, x: np.ndarray, d: int, hbar: float) -> np.ndarray:
    """Tr_m of -(i/hbar)[V, X], particle m being the last tensor factor."""
    return (-1j / hbar) * (_trace_last(v, x, d) - _trace_last(x, v, d))


def _top_level(ug, coupling: np.ndarray, f: np.ndarray) -> tuple:
    """What :func:`_top_commutator` reads for H_m's group ug, V_m and F_m:
    (ug, C, R, parts), where per block b of ug C_b = (V_m Q_b) W_b and
    R_b = (Q_b W_b)^*, the block's eigenbasis as rows, and parts holds the
    nonzero parts (1, H) and (i, K) of F_m = H + iK, H and K Hermitian, each
    as its :func:`qcorr.evolution.eigenbasis_parts`."""
    halves = ((1, (f + f.conj().T) / 2), (1j, (f - f.conj().T) / 2j))
    parts = [(c, eigenbasis_parts(ug, h)) for c, h in halves if np.any(h)]
    cs = [into_swap_basis(coupling, basis, 1) @ w for _, w, basis in ug.blocks]
    rs = [out_of_swap_basis(w.conj().T, basis, 1) for _, w, basis in ug.blocks]
    return ug, cs, rs, parts


def _top_commutator(top: tuple, tn: float, d: int, hbar: float) -> np.ndarray:
    """T_m(t_n) = Tr_m of -(i/hbar)[V_m, G_m(t_n) F_m] at an outer node t_n.

    The top level of every series term on m particles: it depends on m and
    t_n alone, so one solve evaluates it once per (m, t_n) for all s with
    s < m <= s + order.  ``top`` is :func:`_top_level`'s.  With
    p = ``phases(group, t_n)`` each part P evolves to the Hermitian
    X = sum over its block pairs of Q_b W_b (p_b P_bc p_c^*) W_c^* Q_c^T, so
    Tr_m(X V_m) = T^* for T = Tr_m(V_m X) = sum over the pairs of
    Tr_m((C_b p_b)(P_bc p_c^*) R_c): per pair one product of a D x s_b by an
    s_b x s_c matrix, and D^2 s_c/d flops for the trace, where the dense
    route took a D^3 product per part.
    """
    ug, cs, rs, parts = top
    p = phases(ug, tn)
    ps = [p[cols] for cols, _, _ in ug.blocks]
    cps = [c * pb for c, pb in zip(cs, ps)]
    acc = np.zeros((p.size // d,) * 2, dtype=complex)
    for coef, part in parts:
        tr = sum(
            _trace_last(cps[b] @ (x * ps[c].conj()), rs[c], d) for (b, c), x in part.items()
        )
        acc = acc + coef * (tr - tr.conj().T)
    return (-1j / hbar) * acc


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
    below j.  So V_m, the spectral parts of F_m and the top level T_m(t_n)
    (:func:`_top_commutator`) are built once per call, and one descent from
    each T_m(t_n) serves every s whose series reaches m, ending the chain
    of F_s at level s.  Every s sums its terms in the order of a solve for
    it alone, so F_s does not depend on the other s requested, to the bit.
    Tracing each level out at once is exact: every later step acts on
    particles 1..m-1 only, so Tr_m commutes with it.
    """
    require_two_body(spec)
    seq = f0.seq
    for s in s_values:
        if not 1 <= s <= seq.n_max:
            raise ValueError(f"s must be in [1, {seq.n_max}], got {s}")
    d, hbar = spec.dim_single, spec.hbar

    def descend(ends: list[int], m: int, tau: float, x: np.ndarray) -> dict:
        """{s: the chain of F_s} for each s <= m in ``ends``, from x on
        particles 1..m at time tau on to time t.

        The chain of s = m conjugates x with G_m(t - tau).  Each node t' of
        [tau, t] conjugates x with G_m(t' - tau), and the chains of the
        s < m descend together from Tr_m[V_m, .] of that at t'.  x moves
        into the eigenbasis of H_m once, and each node only applies phases.
        """
        ug = make_unitary_group(spec, ParticleSet.range1(m))
        parts = eigenbasis_parts(ug, x)
        below = [s for s in ends if s < m]
        acc = {s: 0 for s in below}
        for node, w in _interval_nodes(q, tau, t) if below else []:
            y = _traced_commutator(coupling[m], evolve_parts(ug, parts, node - tau), d, hbar)
            for s, chain in descend(below, m - 1, node, y).items():
                acc[s] = acc[s] + w * chain
        if m in ends:  # from 0, as every sum here, so -0.0 ends as +0.0
            acc[m] = 0 + evolve_parts(ug, parts, t - tau)
        return acc

    totals = {}
    for s in s_values:
        ug = make_unitary_group(spec, ParticleSet.range1(s))
        totals[s] = propagate(ug, t, seq.component(s).matrix)
    top_end = {s: min(s + q.order, seq.n_max) for s in totals}
    coupling = _pair_potential_sums(
        spec, {m for s in totals for m in range(s + 1, top_end[s] + 1)}
    )
    for m in coupling:
        if not seq.has(m):
            continue
        ends = [s for s in totals if s < m <= top_end[s]]
        ug = make_unitary_group(spec, ParticleSet.range1(m))
        top = _top_level(ug, coupling[m], seq.components[m].matrix)
        for tn, wt in _interval_nodes(q, 0.0, t):
            x = _top_commutator(top, tn, d, hbar)
            for s, chain in descend(ends, m - 1, tn, x).items():
                totals[s] = totals[s] + wt * chain
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
        p = phases(ug, np.array(times)[:, None])  # a row per time
        number += n * np.trace(flow.d0.components[n].matrix) / factorial(n)
        for b, (cols, _, _) in enumerate(ug.blocks):
            pb = p[:, cols]
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
