"""Enumeration tests: partition coefficients, bipartition weights, counts."""

import math

import pytest

from momalg.combinatorics import (
    EMPTY,
    Multiset,
    multiset_lattice,
    ordered_bipartitions_of,
    partitions_of,
)
from momalg.errors import DomainError, EmptyMultisetError


def bell_numbers(top):
    """Independent Bell oracle via B(n+1) = sum C(n,k) B(k)."""
    b = [1]
    for n in range(top):
        b.append(sum(math.comb(n, k) * b[k] for k in range(n + 1)))
    return b


def test_multiset_order_does_not_matter():
    assert Multiset([3, 1, 2, 3, 1, 1]) == Multiset([1, 1, 1, 2, 3, 3])
    assert hash(Multiset([2, 1])) == hash(Multiset([1, 2]))


def test_multiset_text_form():
    assert str(Multiset([3, 1, 1])) == "[1,1,3]"
    assert str(EMPTY) == "[]"
    assert Multiset.parse("[1,1,3]") == Multiset([1, 3, 1])
    assert Multiset.parse("[]") == EMPTY


def test_multiset_rejects_bad_labels():
    with pytest.raises(DomainError):
        Multiset([0, 1])


def test_partitions_of_pair():
    got = list(partitions_of(Multiset([1, 2])))
    assert len(got) == 2
    blocks = [tuple(str(b) for b in p.blocks) for p, _ in got]
    assert blocks == [("[1,2]",), ("[1]", "[2]")]
    assert [c for _, c in got] == [1, 1]


def test_partitions_of_triple_repeat_matches_kappa3_coefficients():
    # classical kappa_3 pattern: X^3 - 3 X^2 X + 2 X^3 comes from
    # coefficients 1, 3, 1 and the (|p|-1)!(-1)^(|p|-1) prefactors
    got = {tuple(str(b) for b in p.blocks): c
           for p, c in partitions_of(Multiset([1, 1, 1]))}
    assert got == {
        ("[1,1,1]",): 1,
        ("[1,1]", "[1]"): 3,
        ("[1]", "[1]", "[1]"): 1,
    }


def test_partition_count_matches_bell_oracle():
    bell = bell_numbers(7)
    for n in range(1, 7):
        parts = list(partitions_of(Multiset(range(1, n + 1))))
        assert len(parts) == bell[n]
        assert all(c == 1 for _, c in parts)


def test_partition_coefficients_conserve_labeled_count():
    bell = bell_numbers(7)
    for k in range(1, 7):
        total = sum(c for _, c in partitions_of(Multiset([1] * k)))
        assert total == bell[k]


def test_partition_blocks_sum_back():
    a = Multiset([1, 1, 2, 3])
    for p, _ in partitions_of(a):
        whole = EMPTY
        for b in p.blocks:
            assert not b.is_empty
            whole = whole + b
        assert whole == a
        assert p.part_count == len(p.blocks)


def test_partitions_of_empty_raises():
    with pytest.raises(EmptyMultisetError):
        next(partitions_of(EMPTY))


def test_bipartitions_of_pair():
    got = list(ordered_bipartitions_of(Multiset([1, 2])))
    assert len(got) == 4
    assert all(bp.weight == 1 for bp in got)
    assert (EMPTY, Multiset([1, 2]), 1) in got
    assert (Multiset([1, 2]), EMPTY, 1) in got


def test_bipartitions_of_empty():
    assert list(ordered_bipartitions_of(EMPTY)) == [(EMPTY, EMPTY, 1)]


def test_bipartitions_repeated_label_weights():
    # (fg)'' = f''g + 2 f'g' + f g'' expanded by hand
    got = list(ordered_bipartitions_of(Multiset([1, 1])))
    assert got == [
        (EMPTY, Multiset([1, 1]), 1),
        (Multiset([1]), Multiset([1]), 2),
        (Multiset([1, 1]), EMPTY, 1),
    ]


def test_bipartition_weights_sum_to_power_of_two_product():
    for a in [Multiset([1, 1]), Multiset([1, 1, 2]), Multiset([1, 2, 2, 3])]:
        expected = 1
        for _, m in a.items:
            expected *= 2 ** m
        assert sum(bp.weight for bp in ordered_bipartitions_of(a)) == expected


def test_bipartition_splits_recompose():
    a = Multiset([1, 1, 2])
    for first, second, _ in ordered_bipartitions_of(a):
        assert first + second == a


def test_sub_multisets_examples():
    # multiset_lattice enumerates the sub-multisets of the full multiset of
    # the caps by size, then by the expanded element tuple
    assert [str(b) for b in multiset_lattice(2, (1, 1))] == \
        ["[]", "[1]", "[2]", "[1,2]"]
    assert [str(b) for b in multiset_lattice(1, (2,))] == \
        ["[]", "[1]", "[1,1]"]
    assert [str(b) for b in multiset_lattice(3, (2, 0, 1))] == \
        ["[]", "[1]", "[3]", "[1,1]", "[1,3]", "[1,1,3]"]


def test_streams_are_deterministic():
    a = Multiset([1, 1, 2, 3])
    assert list(partitions_of(a)) == list(partitions_of(a))
    assert list(ordered_bipartitions_of(a)) == list(ordered_bipartitions_of(a))
    assert multiset_lattice(3, (2, 1, 1)) == multiset_lattice(3, (2, 1, 1))


def test_restrict_and_contains():
    a = Multiset([1, 1, 2, 3])
    assert a.restrict({1, 3}) == Multiset([1, 1, 3])
    assert a.contains(Multiset([1, 2]))
    assert not a.contains(Multiset([2, 2]))
