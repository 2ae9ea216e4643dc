from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruteforce import canon, naive_bell, naive_partitions, naive_stirling2
from qcorr.errors import CapacityError
from qcorr.partitions import (
    ClusterSet,
    ParticleSet,
    enumerate_partitions,
    iter_set_partitions,
    mobius_coefficient,
    partition_sum,
)
from qcorr.verify import (
    bell_number,
    cluster_and_singletons,
    enumerate_nonempty_subsets,
    partition_alternating_sum,
    stirling2,
)

# values frozen up front, cross-checked by enumeration below
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def test_particle_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        ParticleSet((0, 1))
    with pytest.raises(ValueError):
        ParticleSet((2, 1))
    with pytest.raises(ValueError):
        ParticleSet((1, 1))


def test_particle_set_of_sorts_and_dedups():
    assert ParticleSet.of([3, 1, 3, 2]).labels == (1, 2, 3)
    assert ParticleSet.range1(4).labels == (1, 2, 3, 4)
    assert ParticleSet.of([5, 2]).difference([5]).labels == (2,)


def test_cluster_set_orders_and_rejects_overlap():
    cs = ClusterSet.of([[4], [1, 2]])
    assert tuple(c.labels for c in cs) == ((1, 2), (4,))
    assert cs.union.labels == (1, 2, 4)
    with pytest.raises(ValueError):
        ClusterSet.of([[1, 2], [2, 3]])
    assert len(ClusterSet.singletons([7, 3])) == 2
    mixed = cluster_and_singletons(2, 2)
    assert tuple(c.labels for c in mixed) == ((1, 2), (3,), (4,))
    assert tuple(c.labels for c in cluster_and_singletons(3, 0)) == ((1, 2, 3),)


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_count_is_bell(n):
    assert len(enumerate_partitions(ParticleSet.range1(n))) == BELL[n]


@pytest.mark.parametrize("n", range(1, 7))
def test_partitions_match_naive_enumeration(n):
    ours = {
        tuple(b.labels for b in p)
        for p in enumerate_partitions(ParticleSet.range1(n))
    }
    naive = {canon(p) for p in naive_partitions(tuple(range(1, n + 1)))}
    assert ours == naive


def test_enumeration_order_is_deterministic():
    g = ParticleSet.range1(5)
    first = [tuple(b.labels for b in p) for p in enumerate_partitions(g)]
    second = [tuple(b.labels for b in p) for p in enumerate_partitions(g)]
    assert first == second


def test_iter_set_partitions_streams_the_same_family():
    items = (1, 2, 3, 4)
    streamed = {canon(p) for p in iter_set_partitions(items)}
    assert streamed == {canon(p) for p in naive_partitions(items)}


def test_nonempty_subsets_ordered_by_size():
    subs = enumerate_nonempty_subsets(ParticleSet.range1(3))
    assert [s.labels for s in subs] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)
    ]


def test_mobius_coefficient_formula():
    for p in enumerate_partitions(ParticleSet.range1(4)):
        k = len(p)
        assert mobius_coefficient(k) == (-1) ** (k - 1) * factorial(k - 1)


@pytest.mark.parametrize("n,k,val", [(3, 2, 3), (4, 2, 7), (5, 3, 25), (6, 3, 90)])
def test_stirling_known_values(n, k, val):
    assert stirling2(n, k) == val


def test_stirling_against_naive_count():
    for n in range(0, 7):
        for k in range(0, n + 2):
            assert stirling2(n, k) == naive_stirling2(n, k)


def test_stirling_edge_cases():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 0) == 0
    assert stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        stirling2(3, -2)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_stirling_recurrence(n, k):
    assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_bell_numbers_frozen_and_naive():
    for n, want in enumerate(BELL):
        assert bell_number(n) == want
    for n in range(0, 8):
        assert bell_number(n) == naive_bell(n)


def test_bell_is_stirling_row_sum():
    for n in range(1, 13):
        assert bell_number(n) == sum(stirling2(n, k) for k in range(n + 1))


@pytest.mark.parametrize("n", range(1, 13))
def test_alternating_sum_is_delta(n):
    assert partition_alternating_sum(n) == (1 if n == 1 else 0)


def test_alternating_sum_matches_direct_fold():
    # small n: direct sum over materialized partitions must agree
    for n in range(1, 8):
        direct = sum(
            mobius_coefficient(len(p))
            for p in enumerate_partitions(ParticleSet.range1(n))
        )
        assert partition_alternating_sum(n) == direct


def test_capacity_guards():
    with pytest.raises(CapacityError):
        enumerate_partitions(ParticleSet.range1(13))
    with pytest.raises(CapacityError):
        enumerate_nonempty_subsets(ParticleSet.range1(17))
    with pytest.raises(CapacityError):
        stirling2(21, 3)
    with pytest.raises(CapacityError):
        partition_alternating_sum(13)


@given(st.sets(st.integers(min_value=1, max_value=9), min_size=1, max_size=5))
def test_every_partition_covers_and_is_disjoint(labels):
    ground = ParticleSet.of(labels)
    for p in enumerate_partitions(ground):
        seen = []
        for b in p:
            seen.extend(b.labels)
        assert sorted(seen) == list(ground.labels)
        assert len(set(seen)) == len(seen)


@pytest.mark.parametrize(
    "units",
    [[[1], [2], [3], [4]], [[1, 2], [3], [4], [5]], [[1, 2, 3], [4], [5]]],
)
@pytest.mark.parametrize("signed", [False, True])
def test_partition_sum_visits_each_partition_once(units, signed):
    # each partition's term is its own unit vector, so the sum lists the
    # weight every partition received; a few are skipped by returning None
    family = [tuple(u) for u in units]
    naive = [
        canon(tuple(tuple(x for u in block for x in u) for block in p))
        for p in naive_partitions(tuple(family))
    ]
    index = {p: i for i, p in enumerate(naive)}
    skipped = set(naive[1::3])
    seen = []

    def term(blocks):
        key = tuple(b.labels for b in blocks)
        seen.append(key)
        if key in skipped:
            return None
        e = np.zeros(len(naive), dtype=int)
        e[index[key]] = 1
        return e

    total = partition_sum(ClusterSet.of(units), term, signed=signed)
    assert sorted(seen) == sorted(naive)
    for p, i in index.items():
        want = 0 if p in skipped else (mobius_coefficient(len(p)) if signed else 1)
        assert total[i] == want


def test_partition_sum_all_skipped_and_guard():
    pair = ClusterSet.singletons([1, 2])
    assert partition_sum(pair, lambda b: None, signed=True) is None
    with pytest.raises(CapacityError):
        partition_sum(ClusterSet.singletons(range(1, 14)), lambda b: 1, signed=False)
