"""Multisets over a finite ground set and the partition-style enumerations.

`multiset_lattice` is the common domain of M-maps and jets, enumerated by
size: the storage order of the dense lattice ring (`momalg.jets`,
`momalg.algebra`), which `_monomials` enumerates, sorted by size.  Multiset
partitions with integer coefficients serve the reference partition sum
that checks that ring (`algebra.partition_fstar`).  Ground-set labels are
positive integers 1..n; a plain subset is the multiplicity-1 special
case.

All enumerations are deterministic: identical inputs yield identical
orderings (canonical order sorts by total size, then by the expanded
element tuple), and results are cached per multiset.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, EmptyMultisetError


class Multiset:
    """Finite multiset of positive integer labels.

    Stored as a sorted tuple of (label, multiplicity) pairs, so two
    multisets built from permuted element sequences compare equal.
    The textual form is the sorted bracket list, e.g. ``[1,1,3]``;
    the empty multiset renders as ``[]``.
    """

    __slots__ = ("_items",)

    def __init__(self, elements: Iterable[int] = ()):
        counts: dict[int, int] = {}
        for x in elements:
            x = int(x)
            if x < 1:
                raise DomainError(f"labels must be positive integers, got {x}")
            counts[x] = counts.get(x, 0) + 1
        self._items = tuple(sorted(counts.items()))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "Multiset":
        m = cls.__new__(cls)
        m._items = tuple(sorted((k, v) for k, v in counts.items() if v > 0))
        return m

    @classmethod
    def parse(cls, text: str) -> "Multiset":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise DomainError(f"not a multiset literal: {text!r}")
        body = text[1:-1].strip()
        return cls(int(t) for t in body.split(",")) if body else cls()

    @property
    def items(self) -> tuple[tuple[int, int], ...]:
        return self._items

    def elements(self) -> tuple[int, ...]:
        return tuple(lab for lab, m in self._items for _ in range(m))

    @property
    def size(self) -> int:
        return sum(m for _, m in self._items)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(lab for lab, _ in self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    def mult(self, label: int) -> int:
        for lab, m in self._items:
            if lab == label:
                return m
        return 0

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self._items)
        for lab, m in other._items:
            counts[lab] = counts.get(lab, 0) + m
        return Multiset.from_counts(counts)

    def contains(self, other: "Multiset") -> bool:
        """Sub-multiset test: every label of `other` fits inside `self`."""
        return all(self.mult(lab) >= m for lab, m in other._items)

    def restrict(self, labels: Iterable[int]) -> "Multiset":
        """Keep only the given labels (with multiplicities); the c ∩ A of
        the factorization test."""
        keep = set(labels)
        return Multiset.from_counts({lab: m for lab, m in self._items if lab in keep})

    def fits(self, caps: tuple[int, ...]) -> bool:
        n = len(caps)
        return all(lab <= n and m <= caps[lab - 1] for lab, m in self._items)

    @property
    def sort_key(self) -> tuple:
        return (self.size, self.elements())

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __str__(self) -> str:
        return "[" + ",".join(str(x) for x in self.elements()) + "]"

    def __repr__(self) -> str:
        return f"Multiset({list(self.elements())!r})"


EMPTY = Multiset()


class Partition(NamedTuple):
    """Partition of a multiset into nonempty blocks (canonically sorted)."""

    blocks: tuple[Multiset, ...]

    @property
    def part_count(self) -> int:
        return len(self.blocks)

    @classmethod
    def of(cls, blocks: Iterable[Multiset]) -> "Partition":
        return cls(tuple(sorted(blocks, key=lambda b: (-b.size, b.elements()))))


def _rgs_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Restricted-growth strings of length k, lexicographically."""
    if k == 0:
        yield ()
        return
    prefix = [0]

    def rec(mx: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(mx + 2):
            prefix.append(b)
            yield from rec(max(mx, b))
            prefix.pop()

    yield from rec(0)


@lru_cache(maxsize=None)
def _partitions_cached(a: Multiset) -> tuple[tuple[Partition, int], ...]:
    """The blocks come out as sorted label lists, so each partition is
    sorted as `Partition.of` sorts it, by (-size, elements), on the lists,
    and a block's Multiset is built once per distinct list."""
    labels = a.elements()
    made: dict[tuple[int, ...], Multiset] = {}
    merged: dict[Partition, int] = {}
    for rgs in _rgs_strings(len(labels)):
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for lab, b in zip(labels, rgs):
            blocks[b].append(lab)
        blocks.sort(key=lambda b: (-len(b), b))
        keys = [tuple(b) for b in blocks]
        for key in keys:
            if key not in made:
                made[key] = Multiset(key)
        part = Partition(tuple(map(made.__getitem__, keys)))
        merged[part] = merged.get(part, 0) + 1
    return tuple(merged.items())


def partitions_of(a: Multiset) -> Iterator[tuple[Partition, int]]:
    """All partitions of `a` with integer multiplicity coefficients.

    For multiplicity-1 multisets this is plain set-partition enumeration
    with every coefficient 1.  Repeated labels are handled by labeling the
    repetitions distinctly, enumerating set partitions, projecting back,
    and merging identical projected partitions; the merge count is the
    coefficient.  Streams in first-appearance order of the lexicographic
    restricted-growth enumeration.
    """
    if a.is_empty:
        raise EmptyMultisetError("partitions_of requires a nonempty multiset")
    yield from _partitions_cached(a)


@lru_cache(maxsize=None)
def _monomials(caps: tuple[int, ...]) -> tuple[Multiset, ...]:
    """All multisets over labels 1..len(caps) with per-label multiplicity
    <= cap, in the storage order of the dense lattice ring (`momalg.jets`):
    mixed-radix C order of the multiplicities, label 1 slowest."""
    return tuple(Multiset.from_counts(dict(enumerate(digits, start=1)))
                 for digits in itertools.product(*(range(c + 1)
                                                   for c in caps)))


@lru_cache(maxsize=None)
def multiset_lattice(n: int, caps: tuple[int, ...]) -> tuple[Multiset, ...]:
    """All multisets over labels 1..n with per-label multiplicity <= cap.

    This is the common domain of M-maps and jets, size prod(cap_i + 1),
    enumerated by size: the storage order `_monomials` sorted by sort_key.
    """
    if len(caps) != n:
        raise DomainError(f"caps has length {len(caps)}, expected {n}")
    return tuple(sorted(_monomials(caps), key=lambda a: a.sort_key))
