import itertools
import time

import numpy as np
import pytest

from bruteforce import (
    complex_gaussian,
    naive_embed,
    naive_kron,
    naive_partial_trace,
    naive_permute,
)
from qcorr.errors import CapacityError
from qcorr.operators import (
    TAU_HERM,
    ManyBodyOperator,
    check_mb_symmetry,
    embed_sum,
    identity_operator,
    max_abs,
    mb_symmetry_defect,
    min_eigenvalue,
    partial_trace,
    relabel,
    scaled_hermitian_defect,
    symmetrize,
    tensor_embed,
    tensor_product,
    trace_norm,
    zero_operator,
)
from qcorr.partitions import ParticleSet
from qcorr.presets import random_system, rng_from_seed

TOL = 1e-12


def rand_op(seed, labels, d=2):
    rng = rng_from_seed(seed)
    return ManyBodyOperator(ParticleSet.of(labels), d, complex_gaussian(rng, d ** len(labels)))


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
    a = rand_op(1, [1, 2])
    b = rand_op(2, [1, 3])
    with pytest.raises(ValueError):
        _ = a + b


def test_relabel_moves_names_only():
    a = rand_op(3, [1, 2])
    b = relabel(a, ParticleSet((4, 7)))
    assert b.labels.labels == (4, 7)
    assert np.array_equal(a.matrix, b.matrix)
    with pytest.raises(ValueError):
        relabel(a, ParticleSet((1, 2, 3)))


def test_tensor_product_matches_naive_kron():
    a = rand_op(4, [1])
    b = rand_op(5, [2])
    got = tensor_product([a, b]).matrix
    assert np.allclose(got, naive_kron(a.matrix, b.matrix), atol=TOL)


def test_tensor_product_is_order_independent():
    a = rand_op(6, [2])
    b = rand_op(7, [1, 4])
    c = rand_op(8, [3])
    one = tensor_product([a, b, c])
    two = tensor_product([c, a, b])
    assert one.labels.labels == (1, 2, 3, 4)
    assert np.allclose(one.matrix, two.matrix, atol=TOL)


def test_tensor_product_interleaved_labels():
    # factor on {1,3} times factor on {2}: axes must land in label order
    a = rand_op(9, [1, 3])
    b = rand_op(10, [2])
    got = tensor_product([a, b])
    # oracle: embed each on {1,2,3} and multiply
    ea = naive_embed(a.matrix, [0, 2], 3, 2)
    eb = naive_embed(b.matrix, [1], 3, 2)
    assert np.allclose(got.matrix, ea @ eb, atol=TOL)


def test_tensor_product_rejects_overlap():
    with pytest.raises(ValueError):
        tensor_product([rand_op(11, [1, 2]), rand_op(12, [2])])


def test_tensor_embed_matches_naive():
    op = rand_op(13, [2, 4])
    target = ParticleSet.of([1, 2, 3, 4])
    got = tensor_embed(op, target).matrix
    want = naive_embed(op.matrix, [1, 3], 4, 2)
    assert np.allclose(got, want, atol=TOL)


def test_embed_sum_of_scattered_terms_matches_naive():
    # d = 3, terms on {1,3}, {2} and {4} of (1..4), one of them twice
    a = rand_op(40, [1, 3], d=3).matrix
    b = rand_op(41, [2], d=3).matrix
    c = rand_op(42, [4], d=3).matrix
    terms = [((1, 3), a), ((2,), b), ((4,), c), ((2,), c)]
    got = embed_sum(terms, ParticleSet.range1(4), 3)
    want = sum(naive_embed(m, [l - 1 for l in labels], 4, 3) for labels, m in terms)
    assert np.allclose(got, want, atol=TOL)


def test_embed_sum_reads_slots_in_the_order_given():
    op = rand_op(43, [1, 3], d=3)
    got = embed_sum([((3, 1), op.matrix)], ParticleSet.range1(3), 3)
    swapped = naive_permute(op.matrix, (1, 0), 3)
    assert np.allclose(got, naive_embed(swapped, [0, 2], 3, 3), atol=TOL)


@pytest.mark.parametrize("labels", [(1, 5), (2, 2), (4,)])
def test_embed_sum_rejects_labels_outside_the_target(labels):
    m = np.eye(2 ** len(labels))
    with pytest.raises(ValueError, match="not contained"):
        embed_sum([(labels, m)], ParticleSet.of([1, 2, 3]), 2)


def test_tensor_product_of_factors_out_of_label_order_at_d3():
    a = rand_op(44, [3], d=3)
    b = rand_op(45, [1, 4], d=3)
    c = rand_op(46, [2], d=3)
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
    op = rand_op(47, [1, 2, 3, 4], d=3)
    for traced in [(1, 3), (2, 4), (1, 2, 4)]:
        got = partial_trace(op, ParticleSet(traced))
        assert got.labels == op.labels.difference(traced)
        want = naive_partial_trace(op.matrix, 4, 3, [t - 1 for t in traced])
        assert np.allclose(got.matrix, want, atol=TOL)
    # labels that do not start at 1
    op = rand_op(48, [2, 5, 7], d=3)
    got = partial_trace(op, ParticleSet((2, 7)))
    assert got.labels.labels == (5,)
    assert np.allclose(got.matrix, naive_partial_trace(op.matrix, 3, 3, [0, 2]), atol=TOL)


def test_partial_trace_matches_naive():
    op = rand_op(14, [1, 2, 3])
    for traced, kept_pos in [((2,), [0, 2]), ((1, 3), [1]), ((1, 2, 3), [])]:
        got = partial_trace(op, ParticleSet.of(traced)).matrix
        want = naive_partial_trace(
            op.matrix, 3, 2, [t - 1 for t in traced]
        )
        assert np.allclose(got, want, atol=TOL)


def test_partial_trace_of_product_factorizes():
    a = rand_op(15, [1])
    b = rand_op(16, [2])
    joint = tensor_product([a, b])
    red = partial_trace(joint, ParticleSet((2,)))
    assert np.allclose(red.matrix, a.matrix * b.trace, atol=TOL)


def test_partial_trace_empty_set_is_identity_map():
    op = rand_op(17, [1, 2])
    same = partial_trace(op, ParticleSet(()))
    assert np.array_equal(same.matrix, op.matrix)


def test_tensor_product_swap_is_a_slot_permutation():
    a = rand_op(18, [1])
    b = rand_op(19, [2])
    ab = tensor_product([a, relabel(b, ParticleSet((2,)))])
    swapped = naive_permute(ab.matrix, (1, 0), 2)
    ba = tensor_product([relabel(b, ParticleSet((1,))), relabel(a, ParticleSet((2,)))])
    assert np.allclose(swapped, ba.matrix, atol=TOL)


def test_trace_norm_is_singular_value_sum():
    m = np.array([[0.0, 3.0], [4.0, 0.0]], dtype=complex)
    op = ManyBodyOperator(ParticleSet((1,)), 2, m)
    assert abs(trace_norm(op) - 7.0) <= TOL
    m = rand_op(23, [1, 2]).matrix
    herm = ManyBodyOperator(ParticleSet.of([1, 2]), 2, (m + m.conj().T) * 0.5)
    eigs = np.linalg.eigvalsh(herm.matrix)
    assert abs(trace_norm(herm) - np.abs(eigs).sum()) <= 1e-10


def test_norm_helpers_agree_with_numpy():
    op = rand_op(24, [1, 2])
    assert abs(max_abs(op) - np.abs(op.matrix).max()) <= TOL


def test_symmetrize_projects_onto_symmetric_operators():
    op = rand_op(25, [1, 2, 3])
    sym = symmetrize(op)
    assert check_mb_symmetry(sym)
    assert mb_symmetry_defect(sym) <= 1e-12
    again = symmetrize(sym)
    assert np.allclose(sym.matrix, again.matrix, atol=TOL)


@pytest.mark.parametrize("d", [2, 3])
def test_symmetrize_equals_the_explicit_permutation_sum(d):
    op = rand_op(31, [1, 2, 3, 4], d=d)
    perms = list(itertools.permutations(range(4)))
    want = sum(naive_permute(op.matrix, p, d) for p in perms) / len(perms)
    got = symmetrize(op).matrix
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_high_order_preset_potential_is_quick():
    # order 8 at d = 2 has 8! = 40320 permutations but 28 transpositions
    start = time.process_time()
    spec = random_system(1, dim_single=2, orders=(8,))
    assert time.process_time() - start < 5.0
    assert check_mb_symmetry(ManyBodyOperator(ParticleSet.range1(8), 2, spec.potentials[8]))


def test_symmetry_defect_detects_asymmetry():
    a = rand_op(26, [1])
    b = rand_op(27, [2])
    prod = tensor_product([a, b])
    assert mb_symmetry_defect(prod) > 1e-3
    assert not check_mb_symmetry(prod)


def _slot_pair_operator(values):
    """An n-qubit operator whose entry at slot pairs (p1, ..., pn) is
    values[(p1, ..., pn)], a slot pair being a (row bit, column bit)."""
    n = len(next(iter(values)))
    m = np.zeros((2**n, 2**n), dtype=complex)
    for pairs, v in values.items():
        row = sum(r << (n - 1 - i) for i, (r, _) in enumerate(pairs))
        col = sum(c << (n - 1 - i) for i, (_, c) in enumerate(pairs))
        m[row, col] = v
    return ManyBodyOperator(ParticleSet.range1(n), 2, m)


_SLOT_PAIRS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _cycle_count(perm):
    seen, count = set(), 0
    for i in range(len(perm)):
        count += i not in seen
        while i not in seen:
            seen.add(i)
            i = perm[i]
    return count


def _cayley_operator(n, t):
    """On the orbit of n distinct slot pairs, the arrangement perm holds t
    times n minus its number of cycles, its distance from the identity in
    transpositions: every transposition defect is t, an n-cycle's (n - 1) t."""
    return _slot_pair_operator({
        tuple(_SLOT_PAIRS[p] for p in perm): t * (n - _cycle_count(perm))
        for perm in itertools.permutations(range(n))
    })


def test_symmetry_check_keeps_the_exact_decision():
    # entries below 1, so the bound is TAU_HERM.  A largest transposition
    # defect t above it refuses, one within TAU_HERM / (n - 1) accepts, and
    # one in between leaves the decision to the full scan: there the n-cycle
    # defect (n - 1) t refuses, and a lone entry, which every permutation
    # moves alike, accepts
    for n in (3, 4):
        lone = tuple(_SLOT_PAIRS[:n])
        scanned = set()
        for t in TAU_HERM * np.array([0.2, 0.3, 0.45, 0.6, 0.8, 0.95, 1.1, 2.0]):
            cayley = _cayley_operator(n, t)
            assert mb_symmetry_defect(cayley) == (n - 1) * t
            for op in (cayley, _slot_pair_operator({lone: t})):
                want = mb_symmetry_defect(op) <= TAU_HERM
                assert check_mb_symmetry(op) is want
                if TAU_HERM / (n - 1) < t < TAU_HERM:
                    scanned.add(want)
        assert scanned == {True, False}
    sym = symmetrize(rand_op(29, [1, 2, 3, 4]))
    assert check_mb_symmetry(sym)
    assert not check_mb_symmetry(rand_op(30, [1, 2, 3, 4]))


def test_symmetry_check_refuses_without_the_full_scan(monkeypatch):
    # order 8 at d = 2: 28 transpositions, against 8! = 40320 permutations
    def full_scan(op):
        raise AssertionError("scanned every permutation")

    monkeypatch.setattr("qcorr.operators.mb_symmetry_defect", full_scan)
    a = rng_from_seed(32).standard_normal((256, 256))
    op = ManyBodyOperator(ParticleSet.range1(8), 2, (a + a.T) / 2)
    assert not check_mb_symmetry(op)


def test_hermiticity_and_spectrum_helpers():
    m = rand_op(28, [1, 2]).matrix
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
