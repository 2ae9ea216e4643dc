import numpy as np
import pytest

from bruteforce import naive_scattering_cumulant, rand_op
from qcorr.cumulants import cumulant_apply
from qcorr.evolution import group_apply, group_apply_on_subsets, make_unitary_group
from qcorr.operators import ManyBodyOperator, trace_norm
from qcorr.partitions import ClusterSet, ParticleSet
from qcorr.presets import random_system
from qcorr.verify import (
    cluster_interaction_apply,
    cumulant_vanishes_free,
    derivative,
    recover_group_from_cumulants,
    scattering_cumulant_apply,
    scattering_generator_expected,
    scattering_operator_apply,
)

TOL_EXACT = 1e-12
TOL_SUM = 1e-11


def test_single_cluster_cumulant_is_the_group(spec2):
    f = rand_op(60, [1, 2])
    got = cumulant_apply(spec2, 0.7, ClusterSet.of([[1, 2]]), f)
    want = group_apply(make_unitary_group(spec2, f.labels), 0.7, f)
    assert trace_norm(got - want) <= TOL_EXACT


def test_second_order_cumulant_formula(spec2):
    # two singleton clusters: joint conjugation minus the factorized one
    f = rand_op(61, [1, 2])
    t = 0.9
    got = cumulant_apply(spec2, t, ClusterSet.singletons([1, 2]), f)
    joint = group_apply_on_subsets(spec2, t, ClusterSet.of([[1, 2]]), f)
    split = group_apply_on_subsets(spec2, t, ClusterSet.of([[1], [2]]), f)
    assert trace_norm(got - (joint - split)) <= TOL_EXACT


def test_third_order_cumulant_formula(spec2):
    f = rand_op(62, [1, 2, 3])
    t = 0.4
    got = cumulant_apply(spec2, t, ClusterSet.singletons([1, 2, 3]), f)

    def ev(blocks):
        return group_apply_on_subsets(spec2, t, ClusterSet.of(blocks), f)

    want = (
        ev([[1, 2, 3]])
        - ev([[1, 2], [3]])
        - ev([[1, 3], [2]])
        - ev([[2, 3], [1]])
        + 2.0 * ev([[1], [2], [3]])
    )
    assert trace_norm(got - want) <= TOL_SUM


def test_cluster_argument_grouping(spec2):
    # clusters {1,2},{3}: partitions refine over clusters, not particles
    f = rand_op(63, [1, 2, 3])
    t = 0.5
    got = cumulant_apply(spec2, t, ClusterSet.of([[1, 2], [3]]), f)
    joint = group_apply_on_subsets(spec2, t, ClusterSet.of([[1, 2, 3]]), f)
    split = group_apply_on_subsets(spec2, t, ClusterSet.of([[1, 2], [3]]), f)
    assert trace_norm(got - (joint - split)) <= TOL_EXACT


def test_cumulant_validates_cover(spec2):
    f = rand_op(64, [1, 2])
    with pytest.raises(ValueError):
        cumulant_apply(spec2, 0.1, ClusterSet.of([[1], [3]]), f)


def test_zero_time_single_cluster_passes_through(spec2):
    f = rand_op(66, [1, 2])
    out = cumulant_apply(spec2, 0.0, ClusterSet.of([[1, 2]]), f)
    assert np.array_equal(out.matrix, f.matrix)  # exact, not just close


@pytest.mark.parametrize("n,t", [(2, 0.5), (2, 2.0), (3, 0.5), (3, 2.0)])
def test_free_cumulants_vanish(spec_free, n, t):
    f = rand_op(68 + n, list(range(1, n + 1)))
    assert cumulant_vanishes_free(spec_free, n, f, t) <= 1e-11


def test_free_vanishing_rejects_bad_input(spec_free, spec2):
    f = rand_op(70, [1, 2])
    with pytest.raises(ValueError):
        cumulant_vanishes_free(spec2, 2, f, 0.5)  # has interactions
    with pytest.raises(ValueError):
        cumulant_vanishes_free(spec_free, 1, rand_op(71, [1]), 0.5)
    with pytest.raises(ValueError):
        cumulant_vanishes_free(spec_free, 3, f, 0.5)  # wrong particle count


def cumulant_derivative(spec, clusters, f):
    fd = derivative(lambda t: cumulant_apply(spec, t, clusters, f).matrix)
    return ManyBodyOperator(f.labels, f.dim_single, fd)


def test_generator_matches_cluster_interaction(spec2):
    f = rand_op(72, [1, 2])
    clusters = ClusterSet.singletons([1, 2])
    fd = cumulant_derivative(spec2, clusters, f)
    want = cluster_interaction_apply(clusters, f, spec2)
    assert trace_norm(fd - want) <= 1e-12


def test_generator_with_cluster_block(spec2):
    f = rand_op(73, [1, 2, 3])
    clusters = ClusterSet.of([[1], [2, 3]])
    fd = cumulant_derivative(spec2, clusters, f)
    want = cluster_interaction_apply(clusters, f, spec2)
    assert trace_norm(fd - want) <= 1e-12


def test_scattering_operator_basic(spec2):
    f = rand_op(76, [1, 2], herm=False)
    labels = ParticleSet.range1(2)
    assert scattering_operator_apply(spec2, 0.0, labels, f) is f
    out = scattering_operator_apply(spec2, 0.8, labels, f)
    assert abs(trace_norm(out) - trace_norm(f)) <= TOL_EXACT  # unitary conjugation
    with pytest.raises(ValueError):
        scattering_operator_apply(spec2, 0.8, ParticleSet.range1(3), f)


def test_scattering_is_identity_for_free_system(spec_free):
    f = rand_op(77, [1, 2], herm=False)
    out = scattering_operator_apply(spec_free, 1.5, ParticleSet.range1(2), f)
    assert trace_norm(out - f) <= TOL_SUM


def test_scattering_generator_at_zero(spec2):
    f = rand_op(78, [1, 2])
    labels = ParticleSet.range1(2)
    fd = derivative(lambda t: scattering_operator_apply(spec2, t, labels, f).matrix)
    want = scattering_generator_expected(spec2, f)
    assert np.abs(fd - want.matrix).max() <= 1e-12


def test_scattering_cumulant_reductions(spec2, spec_free):
    f = rand_op(79, [1, 2])
    # one cluster: plain scattering conjugation, against W built from scratch
    one = scattering_cumulant_apply(spec2, 0.6, ClusterSet.of([[1, 2]]), f)
    want = naive_scattering_cumulant(
        spec2.one_body, spec2.potentials, spec2.hbar, 2, f.matrix, 0.6, [[0, 1]]
    )
    assert trace_norm(one - ManyBodyOperator(f.labels, 2, want)) <= TOL_EXACT
    # zero time, two clusters: exact zero
    two0 = scattering_cumulant_apply(spec2, 0.0, ClusterSet.singletons([1, 2]), f)
    assert not two0.matrix.any()
    # free system: scattering unitaries collapse to the identity
    free2 = scattering_cumulant_apply(
        spec_free, 1.0, ClusterSet.singletons([1, 2]), f
    )
    assert trace_norm(free2) <= TOL_SUM


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "clusters", [[[1], [2], [3]], [[1, 2], [3]], [[1, 2, 3]]], ids=str
)
@pytest.mark.parametrize("t", [0.4, -1.3])
def test_scattering_cumulant_matches_explicit_w(d, clusters, t):
    # the free back-evolution route against per-block W_B built from scratch
    spec = random_system(seed=90 + d, dim_single=d, orders=(2, 3))
    f = rand_op(91 + d, [1, 2, 3], d=d, herm=False)
    got = scattering_cumulant_apply(spec, t, ClusterSet.of(clusters), f)
    want = naive_scattering_cumulant(
        spec.one_body, spec.potentials, spec.hbar, d, f.matrix, t,
        [[k - 1 for k in c] for c in clusters],
    )
    assert trace_norm(got - ManyBodyOperator(f.labels, d, want)) <= TOL_EXACT


def test_group_recovery_from_cumulants(spec2):
    for n, seed, t in [(2, 80, 0.3), (3, 81, 1.0)]:
        labels = ParticleSet.range1(n)
        f = rand_op(seed, list(range(1, n + 1)))
        got = recover_group_from_cumulants(spec2, t, labels, f)
        want = group_apply(make_unitary_group(spec2, labels), t, f)
        assert trace_norm(got - want) <= 1e-9
