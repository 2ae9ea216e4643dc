"""Independent reference implementations used as oracles by the tests.

Everything here is written the slow, obvious way (index loops, recursive
enumeration, Taylor series) and deliberately imports nothing from the
package under test.
"""

import itertools
from math import factorial

import numpy as np


def naive_partitions(items):
    """All set partitions of a tuple, by recursive insertion.

    Returns a list of partitions; each partition is a tuple of tuples.
    Order of blocks and of partitions is whatever the recursion produces.
    """
    items = tuple(items)
    if not items:
        return []
    if len(items) == 1:
        return [((items[0],),)]
    head, rest = items[0], items[1:]
    out = []
    for sub in naive_partitions(rest):
        # head joins each existing block in turn
        for i in range(len(sub)):
            grown = sub[:i] + ((head,) + sub[i],) + sub[i + 1:]
            out.append(grown)
        # or starts its own block
        out.append(((head,),) + sub)
    return out


def canon(partition):
    """Canonical form: labels ascending in blocks, blocks by least element."""
    blocks = [tuple(sorted(b)) for b in partition]
    return tuple(sorted(blocks, key=lambda b: b[0]))


def naive_stirling2(n, k):
    """Partitions of an n-set into exactly k blocks, counted by enumeration."""
    if n == 0 and k == 0:
        return 1
    return sum(1 for p in naive_partitions(tuple(range(n))) if len(p) == k)


def naive_bell(n):
    if n == 0:
        return 1
    return len(naive_partitions(tuple(range(n))))


def complex_gaussian(rng, dim, norm=1.0):
    """A dim x dim matrix of complex Gaussian entries, real parts drawn
    first, scaled to trace norm ``norm``: a generic operand with no
    Hermitian or permutation structure that could hide an error."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m * (norm / float(np.sum(np.linalg.svd(m, compute_uv=False))))


def naive_kron(a, b):
    """Kronecker product by explicit index loops."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def naive_embed(mat, positions, n, d):
    """Extend a matrix on the given tensor slots by identities elsewhere.

    positions are 0-based slot indices (ascending) among n slots of local
    dimension d; mat is d^len(positions) square.  Index-loop construction.
    """
    m = len(positions)
    dim = d**n
    out = np.zeros((dim, dim), dtype=complex)
    others = [p for p in range(n) if p not in positions]
    for row in range(dim):
        ri = _digits(row, d, n)
        for col in range(dim):
            ci = _digits(col, d, n)
            if any(ri[p] != ci[p] for p in others):
                continue
            sub_r = _undigits([ri[p] for p in positions], d)
            sub_c = _undigits([ci[p] for p in positions], d)
            out[row, col] = mat[sub_r, sub_c]
    return out


def naive_permute(mat, perm, d):
    """mat with output slot j reading input slot perm[j], rows and columns alike.

    perm is a rearrangement of range(n) over the n tensor slots of local
    dimension d; each entry is gathered from its source index by digits.
    """
    n = len(perm)
    src = []
    for out in range(d**n):
        digs = _digits(out, d, n)
        x = [0] * n
        for j, p in enumerate(perm):
            x[p] = digs[j]
        src.append(_undigits(x, d))
    return np.asarray(mat)[np.ix_(src, src)]


def naive_partial_trace(mat, n, d, traced_positions):
    """Trace out the 0-based slots in traced_positions by index loops."""
    kept = [p for p in range(n) if p not in traced_positions]
    dim_out = d ** len(kept)
    out = np.zeros((dim_out, dim_out), dtype=complex)
    for row in range(d**n):
        ri = _digits(row, d, n)
        for col in range(d**n):
            ci = _digits(col, d, n)
            if any(ri[p] != ci[p] for p in traced_positions):
                continue
            r_out = _undigits([ri[p] for p in kept], d)
            c_out = _undigits([ci[p] for p in kept], d)
            out[r_out, c_out] += mat[row, col]
    return out


def expm_series(m, scale_target=0.25):
    """Matrix exponential by scaling-and-squaring on the Taylor series."""
    m = np.asarray(m, dtype=complex)
    norm = np.linalg.norm(m, ord=1)
    squarings = 0
    while norm > scale_target:
        norm /= 2.0
        squarings += 1
    small = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 40):
        term = term @ small / k
        out = out + term
        if np.abs(term).max() < 1e-20:
            break
    for _ in range(squarings):
        out = out @ out
    return out


def naive_hamiltonian(h1, potentials, slots, n, d):
    """H of the given slots, embedded into n slots: h1 on each slot plus
    every k-body potential on each ascending k-subset of the slots."""
    out = np.zeros((d**n, d**n), dtype=complex)
    for p in slots:
        out += naive_embed(h1, [p], n, d)
    for k, phi in potentials.items():
        for combo in itertools.combinations(slots, k):
            out += naive_embed(phi, list(combo), n, d)
    return out


def naive_scattering_cumulant(h1, potentials, hbar, d, f, t, clusters):
    """Scattering cumulant over clusters of 0-based slots, from explicit W.

    f lives on n = log_d(dim f) slots.  W_B(t) = U_B(t) prod_{k in B} U_k(-t)
    for a union B of clusters, every propagator built by eigh of its naive
    Hamiltonian embedded into all n slots; the sum over set partitions P of
    the clusters of (-1)^(|P|-1) (|P|-1)! W_P f W_P^* with W_P the product
    of W_B over the blocks of P.
    """
    n = round(np.log(f.shape[0]) / np.log(d))

    def propagator(slots, tau):
        lam, v = np.linalg.eigh(naive_hamiltonian(h1, potentials, slots, n, d))
        return (v * np.exp(-1j * tau / hbar * lam)) @ v.conj().T

    def w(slots):
        out = propagator(slots, t)
        for k in slots:
            out = out @ propagator([k], -t)
        return out

    total = np.zeros_like(f, dtype=complex)
    for part in naive_partitions(tuple(range(len(clusters)))):
        wp = np.eye(d**n, dtype=complex)
        for block in part:
            wp = wp @ w(sorted(k for c in block for k in clusters[c]))
        coeff = (-1) ** (len(part) - 1) * factorial(len(part) - 1)
        total += coeff * (wp @ f @ wp.conj().T)
    return total


def naive_nested_nodes(rule, nodes, upper):
    """(node, weight) pairs of one level of the simplex quadrature on [0, upper]."""
    if rule == "gauss-legendre-simplex":
        x, w = np.polynomial.legendre.leggauss(nodes)
        return [((xi + 1.0) * upper / 2.0, wi * upper / 2.0) for xi, wi in zip(x, w)]
    step = upper / (nodes - 1)
    return [
        (i * step, step * (0.5 if i in (0, nodes - 1) else 1.0)) for i in range(nodes)
    ]


def naive_iteration_series(h1, phi2, hbar, d, comps, s, t, order, rule, nodes):
    """F_s(t) from the time-ordered series, every chain on all s+n slots.

    comps maps n to the matrix of F_n on slots 0..n-1.  Term n integrates,
    over 0 <= t_n <= ... <= t_1 <= t, the chain that conjugates F_{s+n}
    with the (s+n)-slot propagator at t_n, then for j = n..1 applies
    -(i/hbar)[phi2(i, s+j), .] for every slot i < s+j, each pair embedded
    into all s+n slots, and conjugates with the propagator of the first
    s+j-1 slots over t_{j-1} - t_j (t_0 = t), embedded the same way; the
    s+1..s+n slots are traced out only at the very end.
    """

    def propagator(m, tau):
        return expm_series((-1j * tau / hbar) * naive_hamiltonian(h1, {2: phi2}, range(m), m, d))

    def conj(u, x):
        return u @ x @ u.conj().T

    u_s = propagator(s, t)
    total = conj(u_s, comps[s])
    n_max = max(comps)
    for n in range(1, min(order, n_max - s) + 1):
        full = s + n
        pairs = {
            m: [naive_embed(phi2, [i, m - 1], full, d) for i in range(m - 1)]
            for m in range(s + 1, full + 1)
        }

        def chain(ts):
            x = conj(propagator(full, ts[-1]), comps[full])
            for j in range(n, 0, -1):
                m = s + j
                x = sum((-1j / hbar) * (v @ x - x @ v) for v in pairs[m])
                upper = ts[j - 2] if j >= 2 else t
                u = propagator(m - 1, upper - ts[j - 1])
                x = conj(naive_embed(u, list(range(m - 1)), full, d), x)
            return naive_partial_trace(x, full, d, list(range(s, full)))

        def integrate(level, upper, ts):
            acc = 0
            for node, w in naive_nested_nodes(rule, nodes, upper):
                here = ts + (node,)
                inner = chain(here) if level == n else integrate(level + 1, node, here)
                acc = acc + w * inner
            return acc

        total = total + integrate(1, t, ())
    return total


def _digits(x, d, n):
    """Big-endian base-d digits of x, length n (slot 0 most significant)."""
    out = []
    for _ in range(n):
        out.append(x % d)
        x //= d
    return out[::-1]


def _undigits(digs, d):
    x = 0
    for v in digs:
        x = x * d + v
    return x
