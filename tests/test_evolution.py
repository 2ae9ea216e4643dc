import numpy as np
import pytest

from bruteforce import complex_gaussian, expm_series, naive_hamiltonian, naive_kron, rand_op
from qcorr import bbgky, evolution
from qcorr.cumulants import cumulant_apply
from qcorr.evolution import (
    DensityFlow,
    evolve_density_sequence,
    group_apply,
    group_apply_on_subsets,
    make_unitary_group,
    unitary_matrix,
)
from qcorr import operators, presets
from qcorr.hamiltonian import SystemSpec, build_hamiltonian
from qcorr.operators import (
    ManyBodyOperator,
    from_swap_blocks,
    swap_block_spectrum,
    symmetrize,
    trace_norm,
)
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.star_algebra import OperatorSequence, annihilation_scalar
from qcorr.presets import (
    free_system,
    random_correlation_state,
    random_density_state,
    random_hermitian,
    random_operator,
    random_sequence,
    random_system,
    rng_from_seed,
)
from qcorr.verify import derivative, liouvillian_apply

TOL = 1e-11


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
    # derivative of the conjugation at t=0 against the commutator
    labels = ParticleSet.range1(2)
    ug = make_unitary_group(spec2, labels)
    h = build_hamiltonian(spec2, labels)
    f = rand_op(45, [1, 2])
    fd = derivative(lambda t: group_apply(ug, t, f).matrix)
    want = liouvillian_apply(h, f, spec2.hbar)
    assert np.abs(fd - want.matrix).max() <= 1e-12


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
    "system,d,blocks",
    [
        ("preset", 3, [[1, 3], [2]]),
        ("preset", 2, [[1, 4], [2, 3]]),
        ("preset", 4, [[1, 3], [2]]),
        ("asymmetric", 3, [[1, 3], [2]]),
    ],
    ids=["d3-13-2", "d2-14-23", "d4-13-2", "asymmetric-d3-13-2"],
)
def test_interleaved_block_family_is_product_of_block_exponentials(system, d, blocks):
    # guards the label order of the tensor product of the blocks' propagators,
    # on blocks in their pair swaps' blocks and on blocks of the identity basis
    if system == "preset":
        spec = random_system(seed=51, dim_single=d, orders=(2, 3))
    else:
        spec = _asymmetric_within_the_guard(d)
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
    # a preset H_B with two or more particles splits into its pair swaps'
    # blocks; the asymmetric potential leaves every H_B whole
    whole = [len(evolution._CACHE[spec][block].blocks) == 1 for block in family]
    assert whole == [system == "asymmetric" or len(block) == 1 for block in family]


def test_block_family_group_is_cached_without_its_own_eigh(monkeypatch):
    spec = random_system(seed=53, dim_single=2, orders=(2, 3))
    calls = _counting_eigh(monkeypatch)
    blocks = ClusterSet.of([[1, 3], [2]])
    f = rand_op(57, [1, 2, 3], herm=False)
    first = group_apply_on_subsets(spec, 0.6, blocks, f)
    # {2} whole, {1,3} in its swap's blocks [3, 1], nothing on {1,2,3}
    assert sorted(calls) == [1, 2, 3]
    assert set(evolution._CACHE[spec]) == {ParticleSet((1, 3)), ParticleSet((2,))}
    again = group_apply_on_subsets(spec, 0.6, blocks, f)
    assert len(calls) == 3
    assert again.matrix.tobytes() == first.matrix.tobytes()


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
    # labels of every operand the public group_apply receives, and of the
    # group at every chain end of the iteration series
    seen, ends = [], []

    def counting(ug, t, f):
        seen.append(f.labels)
        return evolution._conjugate(ug, t, f)

    def ending(ug, parts, t):
        ends.append(ug.labels)
        return evolution.evolve_parts(ug, parts, t)

    for module in (evolution, bbgky):
        monkeypatch.setattr(module, "group_apply", counting)
    monkeypatch.setattr(bbgky, "evolve_parts", ending)
    f = rand_op(55, [1, 2, 3], herm=False)
    group_apply_on_subsets(spec_pair, 0.4, ClusterSet.of([[1, 3], [2]]), f)
    group_apply_on_subsets(spec_pair, 0.4, ClusterSet.of([[1, 2, 3]]), f)
    assert seen == []
    f0 = bbgky.marginal_state_from_density(random_density_state(56, 2, 3))
    bbgky.solve_bbgky_iteration(spec_pair, f0, [1], 0.3, bbgky.QuadratureSpec(2, 4))
    # every chain, G_s(t) F_s among them, ends in the blocks of H_s, not
    # through the dense reference kernel: at order 2 with 4 nodes the chains
    # of s = 1 end 1 + 4 + 16 times
    assert seen == []
    assert ends == [ParticleSet.range1(1)] * 21


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


@pytest.mark.parametrize("d", [2, 3])
def test_density_flow_equals_the_conjugation_route(d):
    spec = random_system(seed=60 + d, dim_single=d, orders=(2, 3))
    d0 = random_density_state(61 + d, d, 3).seq
    flow = DensityFlow(spec, d0)
    for t in (-0.7, 0.3, 1.1):
        got = flow.at(t)
        assert got.scalar0 == d0.scalar0 and got.n_max == d0.n_max
        for n, op in d0.components.items():
            u = unitary_matrix(make_unitary_group(spec, op.labels), t)
            want = u @ op.matrix @ u.conj().T
            err = np.linalg.norm(got.components[n].matrix - want) / np.linalg.norm(want)
            assert err <= 1e-13, (d, t, n, err)


def test_density_flow_at_zero_is_the_initial_sequence(spec2):
    d0 = random_density_state(62, 2, 3).seq
    at0 = DensityFlow(spec2, d0).at(0.0)
    assert at0 is d0
    assert evolve_density_sequence(spec2, d0, 0.0) is d0


# ---------------------------------------------------------------------------
# H_n in the blocks of its pair swaps, against numpy's whole-matrix eigh


def _swap_block_sizes(d, n):
    """The pair swaps' block sizes on n slots: per pair d(d+1)/2 symmetric
    and d(d-1)/2 antisymmetric vectors, times d for an unpaired slot."""
    if n < 2:
        return [d**n]
    sizes = [1]
    for _ in range(n // 2):
        sizes = [x * y for x in sizes for y in (d * (d + 1) // 2, d * (d - 1) // 2)]
    return sorted(x * d ** (n % 2) for x in sizes if x)


def _counting_eigh(monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    return calls


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("free", [False, True], ids=["interacting", "degenerate"])
def test_swap_blocks_diagonalize_h_n_as_eigh_does(d, free, monkeypatch):
    # labels from 3 up; without potentials H_n = sum_i K(i) is degenerate
    spec = free_system(60 + d, d) if free else random_system(60 + d, d, orders=(2, 3))
    calls = _counting_eigh(monkeypatch)
    for n in range(1, 5):
        labels = ParticleSet.of(range(3, 3 + n))
        h = build_hamiltonian(spec, labels).matrix
        calls.clear()
        ug = make_unitary_group(spec, labels)
        assert sorted(calls) == _swap_block_sizes(d, n)
        want_lam, want_v = np.linalg.eigh(h)
        every = np.concatenate([lam for lam, _, _ in ug.blocks])
        assert np.abs(np.sort(every) - want_lam).max() <= 1e-13
        for _, w, _ in ug.blocks:
            assert np.abs(w.conj().T @ w - np.eye(len(w))).max() <= 1e-13
        parts = {(b, b): (w * lam) @ w.conj().T for b, (lam, w, _) in enumerate(ug.blocks)}
        assert np.abs(from_swap_blocks(parts, ug.blocks) - h).max() <= 1e-13
        for t in (0.7, -2.3):
            want_u = (want_v * np.exp(-1j * t / spec.hbar * want_lam)) @ want_v.conj().T
            assert np.abs(unitary_matrix(ug, t) - want_u).max() <= 1e-13
        blocks = swap_block_spectrum(h, d, n, vectors=False)
        every = np.concatenate([lam for lam, _, _ in blocks])
        assert np.abs(np.sort(every) - np.linalg.eigvalsh(h)).max() <= 1e-13


def _asymmetric_within_the_guard(d):
    """A system whose pair potential the exchange guard accepts though it is
    asymmetric by 1e-12 max|phi|, far above the round-off that the block
    route allows."""
    raw = ManyBodyOperator(ParticleSet.range1(2), d, random_hermitian(rng_from_seed(64), d * d))
    phi = np.array(symmetrize(raw).matrix)
    phi[0, 1] += 1e-12 * np.abs(phi).max()
    phi[1, 0] = phi[0, 1].conjugate()
    return SystemSpec(d, random_hermitian(rng_from_seed(65), d), {2: phi})


def test_a_potential_asymmetric_within_the_guard_is_diagonalized_whole(monkeypatch):
    # so H_n goes to eigh whole
    d = 2
    spec = _asymmetric_within_the_guard(d)
    calls = _counting_eigh(monkeypatch)
    for n in (2, 3, 4):
        labels = ParticleSet.range1(n)
        h = build_hamiltonian(spec, labels).matrix
        assert not operators._pair_swap_symmetric(h, d, n)
        calls.clear()
        ug = make_unitary_group(spec, labels)
        assert calls == [d**n]
        want_lam, want_v = np.linalg.eigh(h)
        ((lam, w, _),) = ug.blocks
        assert lam.size == d**n
        assert lam.tobytes() == want_lam.tobytes()
        assert w.tobytes() == want_v.tobytes()
        ((values, _, _),) = swap_block_spectrum(h, d, n, vectors=False)
        assert values.tobytes() == np.linalg.eigvalsh(h).tobytes()


def _relative(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("system", ["symmetric", "asymmetric"])
def test_block_route_equals_the_dense_reference(d, system):
    # U = V diag(p) V^* from numpy's whole-matrix eigh of H_n is the
    # reference; the run's route moves each operand into the pair-swap
    # blocks once and back per time.  An exchange-symmetric operand keeps
    # its diagonal block pairs alone, any other operand every pair; H_n of
    # a potential asymmetric within the guard is one block
    if system == "symmetric":
        spec = random_system(70 + d, d, orders=(2, 3), hbar=0.8)
    else:
        spec = _asymmetric_within_the_guard(d)
    rng = rng_from_seed(71 + d)
    comps = {}
    for n in range(1, 5):
        labels = ParticleSet.range1(n)
        lam, v = np.linalg.eigh(build_hamiltonian(spec, labels).matrix)
        ug = make_unitary_group(spec, labels)
        blocks = len(_swap_block_sizes(d, n)) if system == "symmetric" else 1
        assert len(ug.blocks) == blocks
        sym = random_operator(rng, labels, d, symmetric=True).matrix
        general = complex_gaussian(rng, d**n)
        pairs = {(b, c) for b in range(blocks) for c in range(blocks)}
        for x, keys in ((sym, {(b, b) for b in range(blocks)}), (general, pairs)):
            parts = evolution.eigenbasis_parts(ug, x)
            assert set(parts) == keys
            for t in (0.9, -1.7):
                u = (v * np.exp(-1j * t / spec.hbar * lam)) @ v.conj().T
                want = u @ x @ u.conj().T
                assert _relative(evolution.evolve_parts(ug, parts, t), want) <= 1e-13
                got = group_apply(ug, t, ManyBodyOperator(labels, d, x)).matrix
                assert _relative(got, want) <= 1e-13
        comps[n] = ManyBodyOperator(labels, d, general if n % 2 else sym)
    d0 = OperatorSequence(d, 4, 1.0, comps)
    flow = DensityFlow(spec, d0)
    assert flow.at(0.0) is d0
    for t in (0.4, -0.6):
        got = flow.at(t)
        for n, op in comps.items():
            u = unitary_matrix(make_unitary_group(spec, op.labels), t)
            want = u @ op.matrix @ u.conj().T
            assert _relative(got.components[n].matrix, want) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("system", ["symmetric", "asymmetric"])
def test_a_column_of_times_gives_each_block_a_row_per_time(d, system):
    # the moments take the phases of all their times at once, a row per time
    # in each block's array; H_n of a potential asymmetric within the guard
    # is one block
    if system == "symmetric":
        spec = random_system(80 + d, d, orders=(2, 3))
    else:
        spec = _asymmetric_within_the_guard(d)
    times = [-0.7, 0.3, 1.1]
    for n in range(1, 5):
        ug = make_unitary_group(spec, ParticleSet.range1(n))
        rows = evolution.phases(ug, np.array(times)[:, None])
        assert len(rows) == len(ug.blocks)
        for i, t in enumerate(times):
            for row, p in zip(rows, evolution.phases(ug, t), strict=True):
                assert row[i].tobytes() == p.tobytes()
    d0 = random_density_state(83 + d, d, 4, trace_scale=0.7).seq
    a1 = random_hermitian(rng_from_seed(84 + d), d, 1.0)
    flow, z = DensityFlow(spec, d0), annihilation_scalar(d0)
    # BLAS takes another path for a single row, so the moments agree to
    # round-off, not bit for bit
    together = bbgky.flow_observable_moments(flow, a1, times, z)
    for t, row in zip(times, together, strict=True):
        (alone,) = bbgky.flow_observable_moments(flow, a1, [t], z)
        assert np.abs(np.subtract(row, alone)).max() <= 1e-14


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("traceless", [False, True])
def test_random_operator_takes_its_trace_norm_from_one_spectrum(symmetric, traceless, monkeypatch):
    # the old recipe: radius-scaled draw, symmetrize, de-trace, rescale by svd
    d, n_max, norms = 3, 4, [0.5, 0.25, 0.125, 2.0]
    want = []
    rng = rng_from_seed(66)
    for n in range(1, n_max + 1):
        labels = ParticleSet.range1(n)
        op = ManyBodyOperator(labels, d, random_hermitian(rng, d**n))
        op = symmetrize(op) if symmetric else op
        if traceless:
            op = op - ManyBodyOperator(labels, d, np.eye(d**n)) * (op.trace / d**n)
        want.append(op * (norms[n - 1] / trace_norm(op)))

    def refused(*args):
        raise AssertionError("random_operator computes one spectrum only")

    monkeypatch.setattr(presets, "random_hermitian", refused)
    monkeypatch.setattr(operators, "trace_norm", refused)
    monkeypatch.setattr(np.linalg, "svd", refused)
    state = random_correlation_state(66, d, n_max, norms, traceless, symmetric)
    monkeypatch.undo()
    for n, w in enumerate(want, start=1):
        got = state.seq.components[n]
        assert np.abs(got.matrix - w.matrix).max() <= 1e-13 * np.abs(w.matrix).max()
        assert abs(trace_norm(got) - norms[n - 1]) <= 1e-13 * norms[n - 1]
