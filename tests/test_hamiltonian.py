import numpy as np
import pytest

from bruteforce import complex_gaussian, naive_embed
from qcorr.hamiltonian import (
    SystemSpec,
    build_hamiltonian,
    interaction_liouvillian_apply,
)
from qcorr.operators import ManyBodyOperator, scaled_hermitian_defect, tensor_embed
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.presets import random_operator, random_system, rng_from_seed
from qcorr.verify import (
    cluster_interaction_apply,
    interaction_hamiltonian,
    liouvillian_apply,
)

TOL = 1e-12


def rand_op(seed, labels, d=2, herm=True):
    rng, labels = rng_from_seed(seed), ParticleSet.of(labels)
    if herm:
        return random_operator(rng, labels, d)
    return ManyBodyOperator(labels, d, complex_gaussian(rng, d ** len(labels)))


def test_spec_validation():
    ok = np.array([[1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(ValueError):
        SystemSpec(1, np.array([[1.0]]))
    with pytest.raises(ValueError):
        SystemSpec(2, np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        SystemSpec(2, ok, {1: np.eye(2)})  # potentials start at order 2
    with pytest.raises(ValueError):
        SystemSpec(2, ok, {2: np.eye(3)})  # wrong shape
    with pytest.raises(ValueError):
        SystemSpec(2, ok, hbar=0.0)


def test_spec_requires_symmetric_potentials():
    ok = np.array([[1.0, 0.0], [0.0, -1.0]])
    phi = np.zeros((4, 4))
    phi[1, 1] = 1.0  # |01><01| alone is not swap-invariant
    with pytest.raises(ValueError):
        SystemSpec(2, ok, {2: phi})
    phi[2, 2] = 1.0
    SystemSpec(2, ok, {2: phi})  # symmetrized version passes


def test_build_hamiltonian_matches_naive_embedding(spec2):
    labels = ParticleSet.range1(3)
    got = build_hamiltonian(spec2, labels).matrix
    want = np.zeros((8, 8), dtype=complex)
    for i in range(3):
        want = want + naive_embed(spec2.one_body, [i], 3, 2)
    for pair in [(0, 1), (0, 2), (1, 2)]:
        want = want + naive_embed(spec2.potentials[2], list(pair), 3, 2)
    want = want + spec2.potentials[3]
    assert np.allclose(got, want, atol=TOL)
    assert scaled_hermitian_defect(got)[0] <= TOL


def test_hamiltonian_splits_into_free_and_interaction(spec2):
    labels = ParticleSet.range1(3)
    full = build_hamiltonian(spec2, labels)
    free = SystemSpec(spec2.dim_single, spec2.one_body, {}, spec2.hbar)
    bare = build_hamiltonian(free, labels)
    inter = interaction_hamiltonian(spec2, labels)
    assert np.allclose(full.matrix, bare.matrix + inter.matrix, atol=TOL)


def test_liouvillian_is_scaled_commutator(spec2):
    labels = ParticleSet.range1(2)
    h = build_hamiltonian(spec2, labels)
    f = rand_op(31, [1, 2], herm=False)
    got = liouvillian_apply(h, f, hbar=2.0)
    want = (-1j / 2.0) * (h.matrix @ f.matrix - f.matrix @ h.matrix)
    assert np.allclose(got.matrix, want, atol=TOL)


def test_liouvillian_preserves_trace_and_hermiticity(spec2):
    labels = ParticleSet.range1(2)
    h = build_hamiltonian(spec2, labels)
    f = rand_op(32, [1, 2])
    out = liouvillian_apply(h, f)
    assert abs(out.trace) <= 1e-12
    assert scaled_hermitian_defect(out.matrix)[0] <= TOL


def test_interaction_liouvillian_sign_convention(spec2):
    # +(i/hbar)[f, Phi] equals the Liouvillian generated by Phi alone
    f = rand_op(33, [1, 2], herm=False)
    cluster = ParticleSet((1, 2))
    got = interaction_liouvillian_apply(spec2.potentials[2], cluster, f, spec2.hbar)
    phi_op = ManyBodyOperator(cluster, 2, spec2.potentials[2])
    want = liouvillian_apply(phi_op, f, spec2.hbar)
    assert np.allclose(got.matrix, want.matrix, atol=TOL)


def test_interaction_liouvillian_embeds_cluster(spec2):
    f = rand_op(34, [1, 2, 3], herm=False)
    got = interaction_liouvillian_apply(spec2.potentials[2], ParticleSet((1, 3)), f)
    emb = naive_embed(spec2.potentials[2], [0, 2], 3, 2)
    want = (-1j) * (emb @ f.matrix - f.matrix @ emb)
    assert np.allclose(got.matrix, want, atol=TOL)
    with pytest.raises(ValueError):
        interaction_liouvillian_apply(spec2.potentials[2], ParticleSet((1, 4)), f)


def test_cluster_interaction_couples_across_blocks_only(spec2):
    # generator of correlations between blocks: full interaction minus
    # the interactions internal to each block
    f = rand_op(35, [1, 2, 3], herm=False)
    blocks = ClusterSet.of([[1], [2, 3]])
    got = cluster_interaction_apply(blocks, f, spec2)
    full = interaction_hamiltonian(spec2, f.labels)
    inner = tensor_embed(
        interaction_hamiltonian(spec2, ParticleSet((2, 3))), f.labels
    )
    v = full.matrix - inner.matrix
    want = (-1j / spec2.hbar) * (v @ f.matrix - f.matrix @ v)
    assert np.allclose(got.matrix, want, atol=TOL)


def test_cluster_interaction_on_interleaved_blocks_matches_naive():
    # blocks {1,3} and {2} at d = 3: the pairs {1,2}, {2,3} and the triple
    spec = random_system(seed=39, dim_single=3, orders=(2, 3))
    f = rand_op(40, [1, 2, 3], d=3, herm=False)
    got = cluster_interaction_apply(ClusterSet.of([[1, 3], [2]]), f, spec)
    phi2, phi3 = spec.potentials[2], spec.potentials[3]
    v = naive_embed(phi2, [0, 1], 3, 3) + naive_embed(phi2, [1, 2], 3, 3) + phi3
    want = (-1j / spec.hbar) * (v @ f.matrix - f.matrix @ v)
    assert np.allclose(got.matrix, want, atol=TOL)


def test_cluster_interaction_two_singletons(spec_pair):
    f = rand_op(36, [1, 2], herm=False)
    got = cluster_interaction_apply(ClusterSet.of([[1], [2]]), f, spec_pair)
    want = interaction_liouvillian_apply(
        spec_pair.potentials[2], ParticleSet((1, 2)), f, spec_pair.hbar
    )
    assert np.allclose(got.matrix, want.matrix, atol=TOL)


def test_cluster_interaction_validates_blocks(spec2):
    f = rand_op(37, [1, 2], herm=False)
    with pytest.raises(ValueError):
        cluster_interaction_apply(ClusterSet.of([[1, 2]]), f, spec2)
    with pytest.raises(ValueError):
        cluster_interaction_apply(ClusterSet.of([[1], [3]]), f, spec2)


def test_cluster_interaction_vanishes_without_potentials(spec_free):
    f = rand_op(38, [1, 2], herm=False)
    out = cluster_interaction_apply(ClusterSet.of([[1], [2]]), f, spec_free)
    assert np.abs(out.matrix).max() == 0.0
