import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bruteforce import (
    complex_gaussian,
    kron_embed_sum,
    kron_permutation_sum,
    kron_tensor_product,
    naive_embed,
    naive_kron,
    naive_partial_trace,
    naive_permute,
    rand_op,
    with_signed_zeros,
)
from qcorr import operators
from qcorr.errors import CapacityError
from qcorr.hamiltonian import SystemSpec, build_hamiltonian
from qcorr.operators import (
    TAU_HERM,
    ManyBodyOperator,
    embed_sum,
    from_swap_blocks,
    identity_operator,
    min_eigenvalue,
    partial_trace,
    partial_trace_matrix,
    relabel,
    require_exchange_symmetric,
    scaled_hermitian_defect,
    swap_blocks_of,
    symmetrize,
    tensor_embed,
    tensor_product,
    trace_norm,
    zero_operator,
)
from qcorr.partitions import ParticleSet
from qcorr.presets import (
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_system,
    rng_from_seed,
)

TOL = 1e-12


def test_constructor_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        ManyBodyOperator(ParticleSet((1, 2)), 2, np.eye(3))
    with pytest.raises(ValueError):
        ManyBodyOperator(ParticleSet((1,)), 2, np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(CapacityError):
        ManyBodyOperator(ParticleSet.range1(6), 4, np.eye(4**6))


def test_matrix_is_read_only():
    op = identity_operator(ParticleSet((1,)), 2)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_algebra_requires_matching_space():
    a = rand_op(1, [1, 2], herm=False)
    b = rand_op(2, [1, 3], herm=False)
    with pytest.raises(ValueError):
        _ = a + b


def test_relabel_moves_names_only():
    a = rand_op(3, [1, 2], herm=False)
    b = relabel(a, ParticleSet((4, 7)))
    assert b.labels.labels == (4, 7)
    assert np.array_equal(a.matrix, b.matrix)
    with pytest.raises(ValueError):
        relabel(a, ParticleSet((1, 2, 3)))


def test_tensor_product_matches_naive_kron():
    a = rand_op(4, [1], herm=False)
    b = rand_op(5, [2], herm=False)
    got = tensor_product([a, b]).matrix
    assert np.allclose(got, naive_kron(a.matrix, b.matrix), atol=TOL)


def test_tensor_product_is_order_independent():
    a = rand_op(6, [2], herm=False)
    b = rand_op(7, [1, 4], herm=False)
    c = rand_op(8, [3], herm=False)
    one = tensor_product([a, b, c])
    two = tensor_product([c, a, b])
    assert one.labels.labels == (1, 2, 3, 4)
    assert np.allclose(one.matrix, two.matrix, atol=TOL)


def test_tensor_product_interleaved_labels():
    # factor on {1,3} times factor on {2}: axes must land in label order
    a = rand_op(9, [1, 3], herm=False)
    b = rand_op(10, [2], herm=False)
    got = tensor_product([a, b])
    # oracle: embed each on {1,2,3} and multiply
    ea = naive_embed(a.matrix, [0, 2], 3, 2)
    eb = naive_embed(b.matrix, [1], 3, 2)
    assert np.allclose(got.matrix, ea @ eb, atol=TOL)


def test_tensor_product_rejects_overlap():
    with pytest.raises(ValueError):
        tensor_product([rand_op(11, [1, 2], herm=False), rand_op(12, [2], herm=False)])


def test_tensor_embed_matches_naive():
    op = rand_op(13, [2, 4], herm=False)
    target = ParticleSet.of([1, 2, 3, 4])
    got = tensor_embed(op, target).matrix
    want = naive_embed(op.matrix, [1, 3], 4, 2)
    assert np.allclose(got, want, atol=TOL)


def test_embed_sum_of_scattered_terms_matches_naive():
    # d = 3, terms on {1,3}, {2} and {4} of (1..4), one of them twice
    a = rand_op(40, [1, 3], d=3, herm=False).matrix
    b = rand_op(41, [2], d=3, herm=False).matrix
    c = rand_op(42, [4], d=3, herm=False).matrix
    terms = [((1, 3), a), ((2,), b), ((4,), c), ((2,), c)]
    got = embed_sum(terms, ParticleSet.range1(4), 3)
    want = sum(naive_embed(m, [l - 1 for l in labels], 4, 3) for labels, m in terms)
    assert np.allclose(got, want, atol=TOL)


def test_embed_sum_reads_slots_in_the_order_given():
    op = rand_op(43, [1, 3], d=3, herm=False)
    got = embed_sum([((3, 1), op.matrix)], ParticleSet.range1(3), 3)
    swapped = naive_permute(op.matrix, (1, 0), 3)
    assert np.allclose(got, naive_embed(swapped, [0, 2], 3, 3), atol=TOL)


@pytest.mark.parametrize("labels", [(1, 5), (2, 2), (4,)])
def test_embed_sum_rejects_labels_outside_the_target(labels):
    m = np.eye(2 ** len(labels))
    with pytest.raises(ValueError, match="not contained"):
        embed_sum([(labels, m)], ParticleSet.of([1, 2, 3]), 2)


def test_tensor_product_of_factors_out_of_label_order_at_d3():
    a = rand_op(44, [3], d=3, herm=False)
    b = rand_op(45, [1, 4], d=3, herm=False)
    c = rand_op(46, [2], d=3, herm=False)
    got = tensor_product([a, b, c])
    assert got.labels.labels == (1, 2, 3, 4)
    want = (
        naive_embed(a.matrix, [2], 4, 3)
        @ naive_embed(b.matrix, [0, 3], 4, 3)
        @ naive_embed(c.matrix, [1], 4, 3)
    )
    assert np.allclose(got.matrix, want, atol=TOL)

    # a factor on no labels is a scalar, wherever it stands
    z = 2.5 - 1.0j
    scalar = ManyBodyOperator(ParticleSet(()), 3, np.array([[z]]))
    scaled = tensor_product([a, scalar, b, c])
    assert scaled.labels.labels == (1, 2, 3, 4)
    assert np.allclose(scaled.matrix, z * want, atol=TOL)
    only = tensor_product([scalar, scalar])
    assert only.labels.labels == () and np.allclose(only.matrix, [[z * z]], atol=TOL)


def test_partial_trace_of_non_contiguous_sets_at_d3():
    op = rand_op(47, [1, 2, 3, 4], d=3, herm=False)
    for traced in [(1, 3), (2, 4), (1, 2, 4)]:
        got = partial_trace(op, ParticleSet(traced))
        assert got.labels == op.labels.difference(traced)
        want = naive_partial_trace(op.matrix, 4, 3, [t - 1 for t in traced])
        assert np.allclose(got.matrix, want, atol=TOL)
    # labels that do not start at 1
    op = rand_op(48, [2, 5, 7], d=3, herm=False)
    got = partial_trace(op, ParticleSet((2, 7)))
    assert got.labels.labels == (5,)
    assert np.allclose(got.matrix, naive_partial_trace(op.matrix, 3, 3, [0, 2]), atol=TOL)


def test_partial_trace_matches_naive():
    op = rand_op(14, [1, 2, 3], herm=False)
    for traced, kept_pos in [((2,), [0, 2]), ((1, 3), [1]), ((1, 2, 3), [])]:
        got = partial_trace(op, ParticleSet.of(traced)).matrix
        want = naive_partial_trace(
            op.matrix, 3, 2, [t - 1 for t in traced]
        )
        assert np.allclose(got, want, atol=TOL)


def test_partial_trace_of_product_factorizes():
    a = rand_op(15, [1], herm=False)
    b = rand_op(16, [2], herm=False)
    joint = tensor_product([a, b])
    red = partial_trace(joint, ParticleSet((2,)))
    assert np.allclose(red.matrix, a.matrix * b.trace, atol=TOL)


def test_partial_trace_empty_set_is_identity_map():
    op = rand_op(17, [1, 2], herm=False)
    same = partial_trace(op, ParticleSet(()))
    assert np.array_equal(same.matrix, op.matrix)


def test_tensor_product_swap_is_a_slot_permutation():
    a = rand_op(18, [1], herm=False)
    b = rand_op(19, [2], herm=False)
    ab = tensor_product([a, relabel(b, ParticleSet((2,)))])
    swapped = naive_permute(ab.matrix, (1, 0), 2)
    ba = tensor_product([relabel(b, ParticleSet((1,))), relabel(a, ParticleSet((2,)))])
    assert np.allclose(swapped, ba.matrix, atol=TOL)


def test_trace_norm_is_singular_value_sum():
    m = np.array([[0.0, 3.0], [4.0, 0.0]], dtype=complex)
    op = ManyBodyOperator(ParticleSet((1,)), 2, m)
    assert abs(trace_norm(op) - 7.0) <= TOL
    m = rand_op(23, [1, 2], herm=False).matrix
    herm = ManyBodyOperator(ParticleSet.of([1, 2]), 2, (m + m.conj().T) * 0.5)
    eigs = np.linalg.eigvalsh(herm.matrix)
    assert abs(trace_norm(herm) - np.abs(eigs).sum()) <= 1e-10


def _worst_defect(m, d):
    """W, the largest entry of |P m P^dagger - m| over every slot permutation
    P, by the brute-force permutation."""
    n = round(math.log(len(m), d))
    return max(
        np.abs(naive_permute(m, perm, d) - m).max()
        for perm in itertools.permutations(range(n))
    )


def _accepts(m, d):
    try:
        require_exchange_symmetric(m, d, "m")
    except ValueError:
        return False
    return True


def test_symmetrize_projects_onto_symmetric_operators():
    op = rand_op(25, [1, 2, 3], herm=False)
    sym = symmetrize(op)
    assert _accepts(sym.matrix, 2)
    assert _worst_defect(sym.matrix, 2) <= 1e-12
    again = symmetrize(sym)
    assert np.allclose(sym.matrix, again.matrix, atol=TOL)


@pytest.mark.parametrize("d", [2, 3])
def test_symmetrize_equals_the_explicit_permutation_sum(d):
    op = rand_op(31, [1, 2, 3, 4], d=d, herm=False)
    perms = list(itertools.permutations(range(4)))
    want = sum(naive_permute(op.matrix, p, d) for p in perms) / len(perms)
    got = symmetrize(op).matrix
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_high_order_preset_potential_is_quick():
    # order 8 at d = 2 has 8! = 40320 permutations but 28 transpositions
    start = time.process_time()
    spec = random_system(1, dim_single=2, orders=(8,))
    assert time.process_time() - start < 5.0
    require_exchange_symmetric(spec.potentials[8], 2, "potential[8]")


def test_symmetry_defect_detects_asymmetry():
    a = rand_op(26, [1], herm=False)
    b = rand_op(27, [2], herm=False)
    prod = tensor_product([a, b])
    assert _worst_defect(prod.matrix, 2) > 1e-3
    with pytest.raises(ValueError, match="^m is not exchange-symmetric: "):
        require_exchange_symmetric(prod.matrix, 2, "m")


def _slot_pairs(d):
    """Every (row digit, column digit) of one slot."""
    return [(r, c) for r in range(d) for c in range(d)]


def _slot_pair_operator(values, d):
    """An n-slot operator whose entry at slot pairs (p1, ..., pn) is
    values[(p1, ..., pn)], a slot pair being a (row digit, column digit)."""
    n = len(next(iter(values)))
    m = np.zeros((d**n, d**n), dtype=complex)
    for pairs, v in values.items():
        row = sum(r * d ** (n - 1 - i) for i, (r, _) in enumerate(pairs))
        col = sum(c * d ** (n - 1 - i) for i, (_, c) in enumerate(pairs))
        m[row, col] = v
    return m


def _cycle_count(perm):
    seen, count = set(), 0
    for i in range(len(perm)):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return count


def _cayley_operator(n, t, d):
    """On the orbit of n distinct slot pairs, the arrangement perm holds t
    times n minus its number of cycles, its distance from the identity in
    transpositions: every transposition defect is t, an n-cycle's (n - 1) t."""
    pairs = _slot_pairs(d)
    return _slot_pair_operator({
        tuple(pairs[p] for p in perm): t * (n - _cycle_count(perm))
        for perm in itertools.permutations(range(n))
    }, d)


@pytest.mark.parametrize("d", [2, 3])
def test_symmetry_check_is_bracketed_by_the_worst_permutation_defect(d):
    # with A = m - Sym m, max|A| <= W <= 2 max|A|, so an accepted m has
    # W <= TAU_HERM max|m|, and W <= TAU_HERM / 2 max|m| is accepted.  The
    # test entries are off the diagonal, and the identity under them, which
    # every permutation fixes, makes max|m| = 1: t runs across both bounds
    verdicts = set()
    for n in (2, 3, 4):
        lone = tuple(_slot_pairs(d)[:n])
        for t in TAU_HERM * np.array([0.2, 0.3, 0.45, 0.6, 0.8, 0.95, 1.1, 2.0]):
            for m in (_cayley_operator(n, t, d), _slot_pair_operator({lone: t}, d)):
                m = m + np.eye(d**n)
                w, top = _worst_defect(m, d), np.abs(m).max()
                assert top == 1.0
                ok = _accepts(m, d)
                if ok:
                    assert w <= TAU_HERM * top
                if w <= TAU_HERM / 2 * top:
                    assert ok
                verdicts.add(ok)
    assert verdicts == {True, False}


def test_symmetry_check_makes_one_slot_swap_per_transposition(monkeypatch):
    # an order-7 potential at d = 2 whose largest transposition defect lies
    # between TAU_HERM / 6 and TAU_HERM: a decision by the worst permutation
    # would scan 7! = 5040 of them, the permutation sum takes 7 * 6 / 2 swaps,
    # each one transposed view whose axes come from _slot_axes
    calls = []
    axes = operators._slot_axes

    def counted(slots, n):
        calls.append(tuple(slots))
        return axes(slots, n)

    monkeypatch.setattr(operators, "_slot_axes", counted)
    phi = np.eye(2**7, dtype=complex)
    phi[0, 1] = phi[1, 0] = 0.5 * TAU_HERM
    assert _worst_defect(phi, 2) == 0.5 * TAU_HERM
    SystemSpec(2, np.eye(2), {7: phi})
    swaps = {operators._transposition(7, j, k) for k in range(7) for j in range(k)}
    assert len(calls) == 21 and set(calls) == swaps


@pytest.mark.parametrize("c", [2.0**-1000, 1e-12, 1.0, 1e300])
def test_symmetry_verdict_does_not_change_when_the_matrix_is_rescaled(c):
    asym = rand_op(30, [1, 2, 3, 4], herm=False).matrix
    sym = symmetrize(rand_op(29, [1, 2, 3, 4], herm=False)).matrix
    # the test neither overflows nor underflows, and pyproject turns a
    # RuntimeWarning into a failure
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="not exchange-symmetric"):
            require_exchange_symmetric(c * asym, 2, "m")
        require_exchange_symmetric(c * sym, 2, "m")


def _peak(x):
    """The largest |Re| or |Im| of an entry of x."""
    return max(float(np.abs(x.real).max()), float(np.abs(x.imag).max()))


def _pair(x, qb, qc):
    """Q_b^T x Q_c by two basis changes, of the rows and then the columns."""
    return operators.into_swap_basis(operators.into_swap_basis(x, qb, 0), qc, 1)


def _symmetric_operands(seed, d):
    """(n, matrix) of preset H_n, symmetric correlation draws and density
    draws, n = 2, 3, 4: data that commute with every particle permutation
    up to the round-off of their sums."""
    spec = random_system(seed, d, orders=(2, 3))
    corr = random_correlation_state(seed, d, 4, symmetric=True).seq.components
    dens = random_density_state(seed, d, 4).seq.components
    for n in (2, 3, 4):
        h = build_hamiltonian(spec, ParticleSet.range1(n)).matrix
        for x in (h, corr[n].matrix, dens[n].matrix):
            yield n, x


@pytest.mark.parametrize("d", [2, 3, 4])
def test_swap_blocks_of_drops_exactly_the_pairs_it_measured_as_round_off(d):
    bound = 16 * np.finfo(float).eps
    # symmetric data keep the pairs b = c alone, each formed as _pair forms it
    for seed in range(20):
        for n, x in _symmetric_operands(seed, d):
            bases = operators._swap_blocks(d, n)
            parts = swap_blocks_of(x, bases)
            assert set(parts) == {(b, b) for b in range(len(bases))}
            for b, q in enumerate(bases):
                assert parts[b, b].tobytes() == _pair(x, q, q).tobytes()
    # a Hermitian perturbation antisymmetric under the swap (1 2) lies in
    # the pairs b != c alone: read there at 8 times the bound, every pair is
    # kept and returns the operand; at an eighth of it, b = c alone
    rng = rng_from_seed(90 + d)
    for n, x in _symmetric_operands(0, d):
        bases = operators._swap_blocks(d, n)
        a = random_hermitian(rng, d**n)
        swap = operators._slot_axes(operators._transposition(n, 0, 1), n)
        delta = a - a.reshape((d,) * (2 * n)).transpose(swap).reshape(a.shape)
        off = max(
            _peak(_pair(delta, qb, qc))
            for b, qb in enumerate(bases)
            for c, qc in enumerate(bases)
            if b != c
        )
        for scale, kept in ((8.0, len(bases) ** 2), (1 / 8, len(bases))):
            y = x + delta * (scale * bound * _peak(x) / off)
            parts = swap_blocks_of(y, bases)
            assert len(parts) == kept
            if scale > 1:
                back = from_swap_blocks(parts, bases)
                assert np.linalg.norm(back - y) <= 1e-15 * np.linalg.norm(y)
    # one block keeps its one pair: one slot, and the identity basis
    one_slot, identity = operators._swap_blocks(d, 1), operators._swap_blocks(d**3, 1)
    for bases, dim in ((one_slot, d), (identity, d**3)):
        x = complex_gaussian(rng, dim)
        parts = swap_blocks_of(x, bases)
        assert list(parts) == [(0, 0)]
        assert parts[0, 0].tobytes() == x.tobytes()


def test_hermiticity_and_spectrum_helpers():
    m = rand_op(28, [1, 2], herm=False).matrix
    h = ManyBodyOperator(ParticleSet.of([1, 2]), 2, (m + m.conj().T) * 0.5)
    assert scaled_hermitian_defect(h.matrix)[0] <= 1e-15
    shifted = h + 1j * identity_operator(h.labels, 2)
    assert scaled_hermitian_defect(shifted.matrix)[0] > TAU_HERM
    lo = min_eigenvalue(h)
    assert abs(lo - np.linalg.eigvalsh(h.matrix)[0]) <= 1e-12


def test_hermitian_defect_on_huge_entries():
    # a plain Frobenius norm of these entries overflows (a RuntimeWarning,
    # an error under the test settings); the scaled norms do not
    dev, norm, c = scaled_hermitian_defect(np.diag([1e200, 1e200]).astype(complex))
    assert (dev, c) == (0.0, 1e200) and norm == pytest.approx(np.sqrt(2.0))
    skew = np.array([[0, 1e200], [-1e200, 0]], dtype=complex)
    dev, norm, c = scaled_hermitian_defect(skew)
    assert dev == pytest.approx(np.sqrt(8.0)) and dev > TAU_HERM * norm


def test_zero_and_identity_builders():
    z = zero_operator(ParticleSet.range1(2), 2)
    assert trace_norm(z) == 0.0
    i = identity_operator(ParticleSet.range1(2), 3)
    assert abs(i.trace - 9) <= TOL


# ---------------------------------------------------------------------------
# the strided kernels against the kron-and-copy route they replaced, by bytes:
# every entry must get the same nonzero addends in the same order


def _draw(rng, d, k):
    """A complex Gaussian matrix on k slots with signed zeros among its parts."""
    return with_signed_zeros(complex_gaussian(rng, d**k), rng)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_embed_sum_is_bit_identical_to_the_kron_route(d):
    rng = np.random.default_rng(500 + d)
    n = 4 if d < 4 else 3
    target = ParticleSet.of([2, 5, 7, 9][:n])
    one, two, three = (_draw(rng, d, k) for k in (1, 2, 3))
    cases = [
        [((5,), one)],
        [((7, 2), two), ((2,), one), ((2,), one), ((5, 2), two)],
        [(tuple(target)[::-1], _draw(rng, d, n)), ((), np.array([[-0.0 + 2.5j]]))],
        [(l, one) for l in ((2,), (5,), (7,))] + [((7, 2, 5), three)] * 2,
    ]
    for terms in cases:
        got = embed_sum(terms, target, d)
        assert got.tobytes() == kron_embed_sum(terms, target, d).tobytes()
    for labels in [(8,), (2, 2), (5, 1)]:
        with pytest.raises(ValueError, match="not contained"):
            embed_sum([(labels, np.eye(d ** len(labels)))], target, d)
    scalar = [((), np.array([[-0.0 - 1.5j]])), ((), np.array([[0.25 - 0.0j]]))]
    empty = ParticleSet.of([])
    assert embed_sum(scalar, empty, d).tobytes() == kron_embed_sum(scalar, empty, d).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tensor_product_and_embed_are_bit_identical_to_the_kron_route(d):
    # factors out of label order, one of them a scalar with a signed zero
    rng = np.random.default_rng(510 + d)
    ops = [
        ManyBodyOperator(ParticleSet.of([4]), d, _draw(rng, d, 1)),
        ManyBodyOperator(ParticleSet.of([1, 6]), d, _draw(rng, d, 2)),
        ManyBodyOperator(ParticleSet.of([]), d, np.array([[-0.0 + 0.5j]])),
        ManyBodyOperator(ParticleSet.of([3]), d, _draw(rng, d, 1)),
    ][: 3 if d == 4 else 4]
    got = tensor_product(ops).matrix
    assert got.tobytes() == kron_tensor_product(ops).tobytes()
    target = ParticleSet.of([1, 3, 4, 6][: 3 if d == 4 else 4])
    got = tensor_embed(ops[0], target).matrix
    assert got.tobytes() == kron_embed_sum([(ops[0].labels, ops[0].matrix)], target, d).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_permutation_sum_is_bit_identical_to_the_kron_route(d):
    rng = np.random.default_rng(520 + d)
    for n in range(1, 5):
        m = _draw(rng, d, n)
        got = operators._permutation_sum(m, n, d)
        assert got.tobytes() == kron_permutation_sum(m, n, d).tobytes()
        op = ManyBodyOperator(ParticleSet.range1(n), d, m)
        want = kron_permutation_sum(m, n, d) / math.factorial(n) if n > 1 else m
        assert symmetrize(op).matrix.tobytes() == want.tobytes()


def _guard_outcome(m, d):
    try:
        require_exchange_symmetric(m, d, "m")
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("d", [2, 3])
def test_exchange_guard_keeps_the_verdict_and_ratio_of_the_kron_route(d, monkeypatch):
    # the cases of the bracketing and the rescaling test above, refused and
    # accepted alike
    cases = []
    for n in (2, 3, 4):
        lone = tuple(_slot_pairs(d)[:n])
        for t in TAU_HERM * np.array([0.2, 0.3, 0.45, 0.6, 0.8, 0.95, 1.1, 2.0]):
            for m in (_cayley_operator(n, t, d), _slot_pair_operator({lone: t}, d)):
                cases.append(m + np.eye(d**n))
    asym = rand_op(30, [1, 2, 3, 4], d=d, herm=False).matrix
    sym = symmetrize(rand_op(29, [1, 2, 3, 4], d=d, herm=False)).matrix
    cases += [c * m for c in (2.0**-1000, 1e-12, 1.0, 1e300) for m in (asym, sym)]
    got = [_guard_outcome(m, d) for m in cases]
    monkeypatch.setattr(operators, "_permutation_sum", kron_permutation_sum)
    assert got == [_guard_outcome(m, d) for m in cases]
    assert None in got and any(o and "is not exchange-symmetric" in o for o in got)


# ---------------------------------------------------------------------------
# the slot kernels take their dtype from the operands: exact on Fractions

_OBJECT_EINSUM = pytest.mark.skipif(
    np.lib.NumpyVersion(np.__version__) < "1.25.0",
    reason="np.einsum takes object arrays from numpy 1.25 on",
)


def _fractions(rng, dim):
    """A dim x dim object array of the Fractions k/7, k in [-9, 9]."""
    ks = rng.integers(-9, 10, size=(dim, dim))
    return np.array([[Fraction(int(k), 7) for k in row] for row in ks], dtype=object)


def _exact_kernels(d, rng):
    """The slot kernels by name, each run on fixed Fraction data passed
    through the cast it is given (the identity, or to complex)."""
    two, one, m3 = _fractions(rng, d**2), _fractions(rng, d), _fractions(rng, d**3)
    target = ParticleSet.of([2, 5, 7])
    terms = [((7, 2), two), ((5,), one), ((2, 5), two)]

    def embed(cast):
        return embed_sum([(l, cast(m)) for l, m in terms], target, d)

    def trace(cast):
        return partial_trace_matrix(cast(m3), d, 3, [0, 2])

    def permute(cast):
        return operators._permutation_sum(cast(m3), 3, d)

    return {"embed_sum": embed, "partial_trace_matrix": trace, "_permutation_sum": permute}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param("embed_sum", marks=_OBJECT_EINSUM),
        pytest.param("partial_trace_matrix", marks=_OBJECT_EINSUM),
        "_permutation_sum",
    ],
)
def test_slot_kernels_on_fraction_arrays_equal_the_float_route(d, kernel):
    run = _exact_kernels(d, np.random.default_rng(530 + d))[kernel]
    exact = run(lambda m: m)
    assert exact.dtype == object
    assert all(isinstance(x, (int, Fraction)) for x in exact.ravel())
    floats = run(lambda m: m.astype(complex))
    assert floats.dtype == complex
    assert np.abs(exact.astype(complex) - floats).max() <= 1e-14 * np.abs(floats).max()
