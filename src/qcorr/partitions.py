"""Set-partition combinatorics on particle label sets.

Everything downstream (cluster expansions, cumulants of evolution groups,
hierarchy sums) walks the lattice of set partitions.  This module owns those
walks: canonical enumeration of partitions, the signed factorial
coefficient attached to each partition of the lattice, and
:func:`partition_sum`, the one partition loop that every cluster
expansion, cumulant and solution formula is written with.  Subset
enumeration, Stirling and Bell numbers and the alternating partition sum
serve only the checks, in :mod:`qcorr.verify`.

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
* All counting is exact integer arithmetic.  Guard: partitions of up to 12
  elements or units.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Callable, Iterable, Iterator

from .errors import CapacityError

MAX_PARTITION_GROUND = 12


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
    that range materializes millions of partitions).
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
