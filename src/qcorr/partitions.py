"""Set-partition combinatorics on particle label sets.

Everything downstream (cluster expansions, cumulants of evolution groups,
hierarchy sums) walks the lattice of set partitions.  This module owns those
walks: canonical enumeration of partitions and subsets, Stirling numbers of
the second kind, the signed factorial coefficient attached to each
partition of the lattice, and :func:`partition_sum`, the one partition loop
that every cluster expansion, cumulant and solution formula is written with.

Conventions
-----------
* Particle labels are positive integers.  A :class:`ParticleSet` stores them
  as a strictly increasing tuple; the empty set is allowed and represents the
  scalar (zero-particle) component of an operator sequence.
* A :class:`ClusterSet` is the one set-family type: a set partition, the
  argument list of a cumulant, or the block unions handed to a
  :func:`partition_sum` term.  It keeps its elements ordered by smallest
  label, each element ascending.  Construction canonicalizes, so two
  families with the same sets compare equal.
* All counting is exact integer arithmetic.  Guards: partition enumeration up
  to 12 elements, subset enumeration up to 16 elements, Stirling numbers up
  to n = 20.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Callable, Iterable, Iterator

from .errors import CapacityError

MAX_PARTITION_GROUND = 12
MAX_SUBSET_GROUND = 16
MAX_STIRLING_N = 20


@dataclass(frozen=True)
class ParticleSet:
    """A finite set of particle labels, stored strictly increasing."""

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        if any(x <= 0 for x in labels):
            raise ValueError(f"particle labels must be positive, got {labels}")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError(f"labels must be strictly increasing, got {labels}")
        object.__setattr__(self, "labels", labels)

    @classmethod
    def of(cls, items: Iterable[int]) -> "ParticleSet":
        return cls(tuple(sorted(set(int(x) for x in items))))

    @classmethod
    def range1(cls, n: int) -> "ParticleSet":
        """The canonical set {1, ..., n}."""
        return cls(tuple(range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[int]:
        return iter(self.labels)

    def __contains__(self, label: int) -> bool:
        return label in self.labels

    def difference(self, other: Iterable[int]) -> "ParticleSet":
        drop = set(other)
        return ParticleSet(tuple(x for x in self.labels if x not in drop))

    def issubset(self, other: "ParticleSet") -> bool:
        return set(self.labels) <= set(other.labels)

    def __repr__(self) -> str:
        return "{" + ",".join(map(str, self.labels)) + "}"


@dataclass(frozen=True)
class ClusterSet:
    """An ordered family of pairwise disjoint nonempty particle sets.

    A set partition of its union, or the argument list of a cumulant, where
    each element is one indivisible unit.  Canonical order is by smallest
    contained label.
    """

    elements: tuple[ParticleSet, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a cluster set needs at least one element")
        seen: set[int] = set()
        for c in self.elements:
            if len(c) == 0:
                raise ValueError("clusters must be nonempty")
            if seen & set(c.labels):
                raise ValueError(f"clusters overlap: {self.elements}")
            seen |= set(c.labels)
        ordered = tuple(sorted(self.elements, key=lambda c: c.labels[0]))
        object.__setattr__(self, "elements", ordered)

    @classmethod
    def of(cls, elements: Iterable[Iterable[int]]) -> "ClusterSet":
        return cls(tuple(ParticleSet.of(e) for e in elements))

    @classmethod
    def singletons(cls, labels: Iterable[int]) -> "ClusterSet":
        return cls(tuple(ParticleSet.of([x]) for x in labels))

    @classmethod
    def cluster_and_singletons(cls, s: int, n: int) -> "ClusterSet":
        """The s-cluster (1..s) as one unit, then particles s+1..s+n."""
        return cls.of([range(1, s + 1)] + [[s + j] for j in range(1, n + 1)])

    @property
    def union(self) -> ParticleSet:
        return ParticleSet.of(
            itertools.chain.from_iterable(c.labels for c in self.elements)
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[ParticleSet]:
        return iter(self.elements)


def iter_set_partitions(items: tuple) -> Iterator[tuple[tuple, ...]]:
    """Yield all set partitions of ``items`` as tuples of tuples.

    Deterministic construction order; within each partition the block
    containing the first item comes first and every block preserves the
    input order of its members.
    """
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in iter_set_partitions(rest):
        for i in range(len(sub)):
            grown = ((first,) + sub[i],)
            yield grown + sub[:i] + sub[i + 1 :]
        yield ((first,),) + sub


def enumerate_partitions(ground: ParticleSet) -> list[ClusterSet]:
    """All set partitions of ``ground`` in canonical deterministic order.

    Each partition is a ClusterSet of its blocks, whose union is ``ground``.
    The list has Bell(|ground|) entries.  Guard: |ground| <= 12 (the top of
    that range materializes millions of partitions; the streaming helpers
    below avoid that for the alternating sum).
    """
    if len(ground) > MAX_PARTITION_GROUND:
        raise CapacityError(
            f"partition enumeration capped at {MAX_PARTITION_GROUND} elements, "
            f"got {len(ground)}"
        )
    if len(ground) == 0:
        raise ValueError("cannot partition the empty set")
    return [
        ClusterSet(tuple(ParticleSet(b) for b in blocks))
        for blocks in iter_set_partitions(ground.labels)
    ]


def enumerate_nonempty_subsets(ground: ParticleSet) -> list[ParticleSet]:
    """All nonempty subsets, ordered by size then lexicographically."""
    if len(ground) > MAX_SUBSET_GROUND:
        raise CapacityError(
            f"subset enumeration capped at {MAX_SUBSET_GROUND} elements, "
            f"got {len(ground)}"
        )
    out = []
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground.labels, size):
            out.append(ParticleSet(combo))
    return out


def mobius_coefficient(k: int) -> int:
    """The lattice coefficient (-1)^(k-1) * (k-1)! of a partition with k blocks."""
    return (-1) ** (k - 1) * factorial(k - 1)


def partition_sum(units: ClusterSet, term: Callable, signed: bool):
    """Sum of ``term`` over the set partitions of a family of units.

    Each unit of ``units`` is one indivisible element.  For every partition
    of the family, ``term`` receives the block unions as a ClusterSet (in
    canonical order) and returns a value, or None to skip the partition.
    With ``signed`` a value is weighted by mobius_coefficient(number of
    blocks); otherwise it is added as it is (a factor 1 would still turn
    -0.0 entries into 0.0).  Partitions are visited in the order of
    :func:`enumerate_partitions`; the first kept value starts the sum.
    Returns None when every partition was skipped.
    """
    if len(units) > MAX_PARTITION_GROUND:
        raise CapacityError(
            f"partition sums capped at {MAX_PARTITION_GROUND} units, got {len(units)}"
        )
    total = None
    for blocks in iter_set_partitions(tuple(units)):
        unions = ClusterSet(tuple(ParticleSet.of(itertools.chain(*b)) for b in blocks))
        value = term(unions)
        if value is None:
            continue
        if signed:
            value = value * mobius_coefficient(len(unions))
        total = value if total is None else total + value
    return total


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind s(n, k), exact integer.

    Counts partitions of an n-element set into exactly k blocks; zero when
    k exceeds n.  Guards: n, k >= 0 and n <= 20.
    """
    if n < 0 or k < 0:
        raise ValueError(f"stirling2 requires n, k >= 0, got n={n}, k={k}")
    if n > MAX_STIRLING_N:
        raise CapacityError(f"stirling2 capped at n={MAX_STIRLING_N}, got {n}")
    if k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set."""
    return sum(stirling2(n, k) for k in range(n + 1)) if n else 1


def partition_alternating_sum(n: int) -> int:
    """Sum of (-1)^(|P|-1) (|P|-1)! over all set partitions of {1..n}.

    The coefficient depends only on the block count, so the sum runs over
    block counts k, each taken s(n, k) times.  Returns an exact integer,
    which equals 1 for n = 1 and 0 otherwise.
    """
    if not 1 <= n <= MAX_PARTITION_GROUND:
        raise CapacityError(
            f"alternating sum supported for 1 <= n <= {MAX_PARTITION_GROUND}, got {n}"
        )
    return sum(stirling2(n, k) * mobius_coefficient(k) for k in range(1, n + 1))
