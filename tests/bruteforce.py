"""Independent reference implementations used as oracles by the tests.

Everything here is written the slow, obvious way (index loops, recursive
enumeration, Taylor series) and deliberately imports nothing from the
package under test.  The helpers that only build test inputs, wire and
rand_op, and qcorr_run, which runs the command line, import the package
inside their bodies.
"""

import itertools
import json
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


def stdlib_text(obj) -> str:
    """The canonical text of obj by the standard library alone."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def wire(x):
    """x as a document carries it: dumps_canonical's text, decoded."""
    from qcorr.serialize import dumps_canonical

    return json.loads(dumps_canonical(x))


def rand_op(seed, labels, d=2, herm=True):
    """A seeded operand on the given particle labels: a Hermitian draw of
    presets.random_operator, or for herm=False a complex_gaussian matrix."""
    from qcorr.operators import ManyBodyOperator
    from qcorr.partitions import ParticleSet
    from qcorr.presets import random_operator, rng_from_seed

    rng, labels = rng_from_seed(seed), ParticleSet.of(labels)
    if herm:
        return random_operator(rng, labels, d)
    return ManyBodyOperator(labels, d, complex_gaussian(rng, d ** len(labels)))


def qcorr_run(tmp_path, doc, name, extra=()):
    """`qcorr run` of doc, written by json.dumps (an array as its list) to
    tmp_path/<name>.json, into tmp_path/<name>: its exit code and that path."""
    from qcorr.cli import main

    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc, default=np.ndarray.tolist))
    out = tmp_path / name
    return main(["run", "--scenario", str(path), "--out", str(out), *extra]), out


def result_files(out):
    """{name: bytes} of every file in the directory out but the run's record,
    manifest.json and scenario.json."""
    return {
        path.name: path.read_bytes()
        for path in out.iterdir()
        if path.name not in ("manifest.json", "scenario.json")
    }


def naive_moments(seq, a):
    """Normalized first and second moments of sum_i a(i) on the density
    sequence seq, each component's a(i) embedded by index loops."""
    z = 1.0 + 0.0j
    m1 = m2 = 0.0 + 0.0j
    for n, op in sorted(seq.components.items()):
        a_n = sum(naive_embed(a, [i], n, seq.dim_single) for i in range(n))
        z += np.trace(op.matrix) / factorial(n)
        m1 += np.trace(a_n @ op.matrix) / factorial(n)
        m2 += np.trace(a_n @ a_n @ op.matrix) / factorial(n)
    return float((m1 / z).real), float((m2 / z).real)


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


def naive_nested_nodes(nodes, lower, upper):
    """(node, weight) pairs of one Gauss-Legendre level of the simplex
    quadrature on [lower, upper]."""
    half = (upper - lower) / 2.0
    x, w = np.polynomial.legendre.leggauss(nodes)
    return [(lower + (xi + 1.0) * half, wi * half) for xi, wi in zip(x, w)]


def naive_iteration_series(h1, phi2, hbar, d, comps, s, t, order, nodes):
    """F_s(t) from the time-ordered series, every chain on all s+n slots.

    comps maps n to the matrix of F_n on slots 0..n-1.  Term n integrates,
    over 0 <= t_n <= ... <= t_1 <= t with t_n outermost on [0, t] and each
    t_{j-1} on [t_j, t], the chain that conjugates F_{s+n}
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

        def integrate(level, lower, ts):
            # t_level on [lower, t]; ts holds t_{level+1}..t_n
            acc = 0
            for node, w in naive_nested_nodes(nodes, lower, t):
                here = (node,) + ts
                inner = chain(here) if level == 1 else integrate(level - 1, node, here)
                acc = acc + w * inner
            return acc

        total = total + integrate(n, 0.0, ())
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


# ---------------------------------------------------------------------------
# the kron-and-copy route that the slot-moving kernels of qcorr.operators and
# qcorr.star_algebra replaced, kept as written there so that the tests can
# hold the strided kernels to its bytes, signed zeros included


def kron_permute_slots(m, perm, d):
    """m with its row and column slots rearranged alike, by a transposed copy:
    output slot j takes input slot perm[j]; the identity returns m itself."""
    perm = tuple(int(p) for p in perm)
    n = len(perm)
    if perm == tuple(range(n)):
        return m
    t = m.reshape((d,) * (2 * n))
    return t.transpose(perm + tuple(n + p for p in perm)).reshape(m.shape)


def kron_embed_sum(terms, target, d):
    """Each term kron(m, 1) moved into the label order of target, summed."""
    dim = d ** len(target)
    total = np.zeros((dim, dim), dtype=complex)
    for labels, m in terms:
        labels = tuple(labels)
        rest = tuple(l for l in target if l not in labels)
        if len(labels) + len(rest) != len(target):
            raise ValueError(f"labels {labels} not contained in target {target}")
        big = np.kron(m, np.eye(d ** len(rest), dtype=complex))
        total += kron_permute_slots(big, np.argsort(labels + rest), d)
    return total


def kron_tensor_product(ops):
    """The matrix of the factors kronned in the order given, moved once into
    ascending label order."""
    d = ops[0].dim_single
    labels = tuple(l for op in ops for l in op.labels)
    big = ops[0].matrix
    for op in ops[1:]:
        big = np.kron(big, op.matrix)
    return kron_permute_slots(big, np.argsort(labels), d)


def kron_permutation_sum(m, n, d):
    """The coset-product permutation sum, one new array per transposition."""
    acc = m
    for k in range(1, n):
        total = acc
        for j in range(k):
            perm = list(range(n))
            perm[j], perm[k] = k, j
            total = total + kron_permute_slots(acc, perm, d)
        acc = total
    return acc


def kron_first_block_sum(a, b, s, n, d):
    """star_algebra's first-block sum, one kron and one slot permutation per
    subset term, each added into a new array."""
    head = tuple(range(1, s + 1))
    ordinary = tuple(range(s + 1, s + n + 1))
    acc = None
    for k in range(n + 1):
        if k not in a or n - k not in b:
            continue
        for z in itertools.combinations(ordinary, k):
            rest = tuple(x for x in ordinary if x not in z)
            big = np.kron(a[k], b[n - k])
            term = kron_permute_slots(big, np.argsort(head + z + rest), d)
            acc = term if acc is None else acc + term
    return acc


def with_signed_zeros(m, rng):
    """A copy of the complex matrix m with about a fifth of its real and
    imaginary parts set to -0.0 and another fifth to +0.0."""
    parts = np.array(m, dtype=complex).view(float)
    u = rng.random(parts.shape)
    parts[u < 0.2] = -0.0
    parts[(u >= 0.2) & (u < 0.4)] = 0.0
    return parts.view(complex)
