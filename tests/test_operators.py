import itertools
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import naive_embed, naive_kron, naive_partial_trace
from qcorr.errors import CapacityError
from qcorr.operators import (
    TAU_HERM,
    ManyBodyOperator,
    check_mb_symmetry,
    identity_operator,
    max_abs,
    mb_symmetry_defect,
    min_eigenvalue,
    partial_trace,
    permute_particles,
    relabel,
    scaled_hermitian_defect,
    symmetrize,
    tensor_embed,
    tensor_product,
    trace_norm,
    zero_operator,
)
from qcorr.partitions import ParticleSet
from qcorr.presets import random_operator, random_system, rng_from_seed

TOL = 1e-12


def rand_op(seed, labels, d=2):
    rng = rng_from_seed(seed)
    return random_operator(rng, ParticleSet.of(labels), d, hermitian=False)


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
    with pytest.raises(ValueError):
        _ = a @ b


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


def test_permute_particles_swap_on_product():
    a = rand_op(18, [1])
    b = rand_op(19, [2])
    ab = tensor_product([a, relabel(b, ParticleSet((2,)))])
    swapped = permute_particles(ab, (1, 0))
    ba = tensor_product([relabel(b, ParticleSet((1,))), relabel(a, ParticleSet((2,)))])
    assert np.allclose(swapped.matrix, ba.matrix, atol=TOL)


@given(st.permutations(list(range(3))))
def test_permutation_composition(perm):
    op = rand_op(20, [1, 2, 3])
    back = [perm.index(i) for i in range(3)]
    roundtrip = permute_particles(permute_particles(op, tuple(perm)), tuple(back))
    assert np.allclose(roundtrip.matrix, op.matrix, atol=TOL)


def test_trace_norm_is_singular_value_sum():
    m = np.array([[0.0, 3.0], [4.0, 0.0]], dtype=complex)
    op = ManyBodyOperator(ParticleSet((1,)), 2, m)
    assert abs(trace_norm(op) - 7.0) <= TOL
    herm = rand_op(23, [1, 2])
    herm = (herm + herm.dagger()) * 0.5
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
    want = sum(permute_particles(op, p).matrix for p in perms) / len(perms)
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
    """A 3-qubit operator whose entry at slot pairs (p1, p2, p3) is
    values[(p1, p2, p3)], a slot pair being a (row bit, column bit)."""
    m = np.zeros((8, 8), dtype=complex)
    for pairs, v in values.items():
        row = sum(r << (2 - i) for i, (r, _) in enumerate(pairs))
        col = sum(c << (2 - i) for i, (_, c) in enumerate(pairs))
        m[row, col] = v
    return ManyBodyOperator(ParticleSet.range1(3), 2, m)


def _three_cycle_operator(t):
    """Transposition defects t, 3-cycle defect 2t: on the orbit of three
    distinct slot pairs, the even arrangements hold 0, 2t, t and the odd
    ones t, so the bound (n - 1) * max transposition defect is attained."""
    a, b, c = (0, 0), (0, 1), (1, 0)
    even = {(a, b, c): 0.0, (b, c, a): 2 * t, (c, a, b): t}
    odd = {(b, a, c): t, (a, c, b): t, (c, b, a): t}
    return _slot_pair_operator({**even, **odd})


def test_symmetry_check_keeps_the_exact_decision():
    tol = TAU_HERM
    for t, symmetric in [(0.45 * tol, True), (0.55 * tol, False)]:
        op = _three_cycle_operator(t)
        assert mb_symmetry_defect(op) == 2 * t
        assert check_mb_symmetry(op) is symmetric
    # one off-orbit entry: every transposition moves it, so each defect is
    # the entry itself, above tol / 2; the exact defect decides
    for eps, symmetric in [(0.9 * tol, True), (1.1 * tol, False)]:
        op = _slot_pair_operator({((0, 0), (0, 1), (1, 0)): eps})
        assert check_mb_symmetry(op) is symmetric
    sym = symmetrize(rand_op(29, [1, 2, 3, 4]))
    assert check_mb_symmetry(sym)
    assert not check_mb_symmetry(rand_op(30, [1, 2, 3, 4]))


def test_hermiticity_and_spectrum_helpers():
    h = rand_op(28, [1, 2])
    h = (h + h.dagger()) * 0.5
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
    assert i.dim == 9
    assert abs(i.trace - 9) <= TOL
