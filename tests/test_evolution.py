import numpy as np
import pytest

from bruteforce import complex_gaussian, expm_series, naive_hamiltonian, naive_kron
from qcorr import bbgky, evolution
from qcorr.cumulants import cumulant_apply
from qcorr.evolution import (
    _family_group,
    evolve_density_sequence,
    group_apply,
    group_apply_on_subsets,
    make_unitary_group,
    unitary_matrix,
)
from qcorr.hamiltonian import build_hamiltonian
from qcorr.operators import ManyBodyOperator, trace_norm
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.presets import (
    random_density_state,
    random_operator,
    random_sequence,
    random_system,
    rng_from_seed,
)
from qcorr.verify import liouvillian_apply

TOL = 1e-11


def rand_op(seed, labels, d=2, herm=True):
    rng, labels = rng_from_seed(seed), ParticleSet.of(labels)
    if herm:
        return random_operator(rng, labels, d)
    return ManyBodyOperator(labels, d, complex_gaussian(rng, d ** len(labels)))


def test_propagator_matches_series_exponential(spec2):
    labels = ParticleSet.range1(2)
    h = build_hamiltonian(spec2, labels)
    ug = make_unitary_group(spec2, labels)
    for t in (0.3, 1.7, -0.9):
        want = expm_series(-1j * t / spec2.hbar * h.matrix)
        assert np.allclose(unitary_matrix(ug, t), want, atol=1e-12)


def test_propagator_is_unitary_group(spec2):
    ug = make_unitary_group(spec2, ParticleSet.range1(2))
    u1 = unitary_matrix(ug, 0.4)
    u2 = unitary_matrix(ug, 1.1)
    assert np.allclose(u1 @ u1.conj().T, np.eye(4), atol=TOL)
    assert np.allclose(u1 @ u2, unitary_matrix(ug, 1.5), atol=TOL)
    assert np.allclose(
        unitary_matrix(ug, -0.4), u1.conj().T, atol=TOL
    )


def test_group_apply_is_conjugation(spec2):
    ug = make_unitary_group(spec2, ParticleSet.range1(2))
    f = rand_op(41, [1, 2], herm=False)
    t = 0.8
    u = unitary_matrix(ug, t)
    got = group_apply(ug, t, f)
    assert np.allclose(got.matrix, u @ f.matrix @ u.conj().T, atol=TOL)


def test_group_apply_zero_time_is_bitwise_identity(spec2):
    ug = make_unitary_group(spec2, ParticleSet.range1(2))
    f = rand_op(42, [1, 2])
    assert group_apply(ug, 0.0, f) is f


def test_group_apply_preserves_invariants(spec2):
    ug = make_unitary_group(spec2, ParticleSet.range1(2))
    f = rand_op(43, [1, 2])
    out = group_apply(ug, 1.3, f)
    assert abs(out.trace - f.trace) <= TOL
    assert abs(trace_norm(out) - trace_norm(f)) <= TOL
    want = np.sort(np.linalg.eigvalsh(f.matrix))
    got = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.allclose(got, want, atol=1e-10)


def test_group_apply_inverts(spec2):
    ug = make_unitary_group(spec2, ParticleSet.range1(3))
    f = rand_op(44, [1, 2, 3], herm=False)
    back = group_apply(ug, -0.7, group_apply(ug, 0.7, f))
    assert np.allclose(back.matrix, f.matrix, atol=TOL)


def test_generator_of_group_is_liouvillian(spec2):
    # central difference of the conjugation at t=0 against the commutator
    labels = ParticleSet.range1(2)
    ug = make_unitary_group(spec2, labels)
    h = build_hamiltonian(spec2, labels)
    f = rand_op(45, [1, 2])
    step = 1e-5
    fd = (group_apply(ug, step, f).matrix - group_apply(ug, -step, f).matrix) / (
        2 * step
    )
    want = liouvillian_apply(h, f, spec2.hbar)
    assert np.abs(fd - want.matrix).max() <= 1e-8


def test_spectral_cache_returns_same_object(spec2):
    a = make_unitary_group(spec2, ParticleSet.range1(2))
    b = make_unitary_group(spec2, ParticleSet.range1(2))
    assert a is b


def test_blockwise_propagation_factorizes(spec2):
    f = rand_op(46, [1, 2, 3], herm=False)
    t = 0.6
    blocks = ClusterSet.of([[1, 3], [2]])
    got = group_apply_on_subsets(spec2, t, blocks, f)
    # oracle: per-block series exponentials, assembled on interleaved labels
    h13 = build_hamiltonian(spec2, ParticleSet((1, 3))).matrix
    h2 = build_hamiltonian(spec2, ParticleSet((2,))).matrix
    u13 = expm_series(-1j * t * h13)
    u2 = expm_series(-1j * t * h2)
    big = naive_kron(u13, u2)  # slots (1,3,2) -> reorder to (1,2,3)
    pi = np.asarray(big).reshape((2,) * 6)
    pi = pi.transpose((0, 2, 1, 3, 5, 4)).reshape(8, 8)
    assert np.allclose(got.matrix, pi @ f.matrix @ pi.conj().T, atol=1e-11)


def test_blockwise_single_block_is_full_group(spec2):
    f = rand_op(47, [1, 2], herm=False)
    got = group_apply_on_subsets(spec2, 0.9, ClusterSet.of([[1, 2]]), f)
    want = group_apply(make_unitary_group(spec2, f.labels), 0.9, f)
    assert np.allclose(got.matrix, want.matrix, atol=TOL)
    assert group_apply_on_subsets(spec2, 0.0, ClusterSet.of([[1, 2]]), f) is f


def test_blockwise_free_system_equals_full_group(spec_free):
    # without interactions the blocks are immaterial
    f = rand_op(48, [1, 2, 3], herm=False)
    a = group_apply_on_subsets(spec_free, 1.2, ClusterSet.singletons([1, 2, 3]), f)
    b = group_apply(make_unitary_group(spec_free, f.labels), 1.2, f)
    assert np.allclose(a.matrix, b.matrix, atol=TOL)


@pytest.mark.parametrize(
    "d,blocks", [(3, [[1, 3], [2]]), (2, [[1, 4], [2, 3]])], ids=["d3-13-2", "d2-14-23"]
)
def test_interleaved_block_family_is_product_of_block_exponentials(d, blocks):
    # guards the label order of the family's Kronecker-sum eigenvalues
    spec = random_system(seed=51, dim_single=d, orders=(2, 3))
    family = ClusterSet.of(blocks)
    n = len(family.union)
    f = ManyBodyOperator(family.union, d, complex_gaussian(rng_from_seed(52), d**n))
    t = 0.7
    u = np.eye(d**n, dtype=complex)
    for block in family:
        slots = [label - 1 for label in block]
        h = naive_hamiltonian(spec.one_body, spec.potentials, slots, n, d)
        u = u @ expm_series(-1j * t / spec.hbar * h)
    got = group_apply_on_subsets(spec, t, family, f)
    assert np.abs(got.matrix - u @ f.matrix @ u.conj().T).max() <= 1e-12


def test_block_family_group_is_cached_without_its_own_eigh(monkeypatch):
    spec = random_system(seed=53, dim_single=2, orders=(2, 3))
    eigh = np.linalg.eigh
    calls = []

    def counting(m):
        calls.append(m.shape[0])
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    blocks = ClusterSet.of([[1, 3], [2]])
    first = _family_group(spec, blocks.elements)
    assert sorted(calls) == [2, 4]  # the blocks {2} and {1,3}, nothing on {1,2,3}
    assert _family_group(spec, blocks.elements) is first
    assert len(calls) == 2
    assert first.labels == ParticleSet.range1(3)


def test_operand_dimension_mismatch_names_both_dimensions(spec2):
    labels = ParticleSet.range1(2)
    f3 = random_operator(rng_from_seed(54), labels, 3)
    ug = make_unitary_group(spec2, labels)
    match = "d = 2 .* d = 3"
    for t in (0.0, 0.3):
        with pytest.raises(ValueError, match=match):
            group_apply(ug, t, f3)
        with pytest.raises(ValueError, match=match):
            group_apply_on_subsets(spec2, t, ClusterSet.singletons([1, 2]), f3)
        with pytest.raises(ValueError, match=match):
            cumulant_apply(spec2, t, ClusterSet.singletons([1, 2]), f3)


def test_blockwise_and_iteration_conjugate_through_the_kernel(monkeypatch, spec_pair):
    # labels of every operand the public group_apply receives
    seen = []

    def counting(ug, t, f):
        seen.append(f.labels)
        return evolution._conjugate(ug, t, f)

    for module in (evolution, bbgky):
        monkeypatch.setattr(module, "group_apply", counting)
    f = rand_op(55, [1, 2, 3], herm=False)
    group_apply_on_subsets(spec_pair, 0.4, ClusterSet.of([[1, 3], [2]]), f)
    group_apply_on_subsets(spec_pair, 0.4, ClusterSet.of([[1, 2, 3]]), f)
    assert seen == []
    f0 = bbgky.marginal_state_from_density(random_density_state(56, 2, 3))
    bbgky.solve_bbgky_iteration(spec_pair, f0, 1, 0.3, bbgky.QuadratureSpec(2, 4))
    assert seen == [ParticleSet.range1(1)]


def test_evolve_density_sequence_componentwise(spec2):
    seq = random_sequence(seed=49, dim_single=2, n_max=3)
    t = 0.5
    out = evolve_density_sequence(spec2, seq, t)
    assert out.scalar0 == seq.scalar0
    for n in (1, 2, 3):
        ug = make_unitary_group(spec2, ParticleSet.range1(n))
        want = group_apply(ug, t, seq.components[n])
        assert np.allclose(out.components[n].matrix, want.matrix, atol=TOL)


def test_evolve_density_sequence_rejects_prefixed(spec2):
    from qcorr.verify import shift_map

    seq = random_sequence(seed=50, dim_single=2, n_max=2)
    with pytest.raises(ValueError):
        evolve_density_sequence(spec2, shift_map(seq, 1), 0.1)
    with pytest.raises(TypeError):
        evolve_density_sequence(spec2, object(), 0.1)
