import math

import pytest

from qshuffle.qpoly import qint
from qshuffle.symmetric import derangement_count
from qshuffle.tableaux import (Partition, SkewShape, d_mu, enumerate_syt,
                               extend, f_lambda, hook_length_count,
                               horizontal_strips, partitions_of, q_content,
                               superstandard)


def test_partitions_of_counts():
    # number of partitions of n
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        assert len(partitions_of(n)) == count


def test_partitions_are_sorted_and_valid():
    for n in range(7):
        parts_list = partitions_of(n)
        for lam in parts_list:
            assert lam.size == n
            assert all(a >= b for a, b in zip(lam.parts, lam.parts[1:]))
        assert parts_list == sorted(parts_list, key=lambda p: p.parts,
                                    reverse=True)


def test_contains_and_dominates():
    assert Partition((3, 1)).contains(Partition((2, 1)))
    assert not Partition((2, 2)).contains(Partition((3,)))
    assert Partition((3, 1)).dominates(Partition((2, 2)))
    assert not Partition((2, 2)).dominates(Partition((3, 1)))


def test_removable_corners():
    got = set(p.parts for p in Partition((3, 2, 2)).removable_corners())
    assert got == {(2, 2, 2), (3, 2, 1)}


def test_horizontal_strips_examples():
    strips = {mu.parts for mu in horizontal_strips(Partition((2, 2)))}
    assert strips == {(2, 2), (2, 1), (2,)}
    strips = {mu.parts for mu in horizontal_strips(Partition((2, 1, 1)))}
    assert strips == {(2, 1, 1), (1, 1, 1), (2, 1), (1, 1)}
    for lam in partitions_of(5):
        for mu in horizontal_strips(lam):
            assert SkewShape(lam, mu).is_horizontal_strip()


def test_horizontal_strip_detection():
    # (2,2)/(1) has two cells in column 2 -> not a strip
    assert not SkewShape(Partition((2, 2)), Partition((1,))).is_horizontal_strip()
    assert SkewShape(Partition((3, 1)), Partition((1, 1))).is_horizontal_strip()
    # (2,2)/(1,1) stacks two cells in column 2 -> not a strip
    assert not SkewShape(Partition((2, 2)),
                         Partition((1, 1))).is_horizontal_strip()


def test_q_content():
    # cells of (2,2)/(2): one cell (1,0) and one cell (1,1)
    shape = SkewShape(Partition((2, 2)), Partition((2,)))
    assert q_content(shape) == qint(-1) + qint(0)


def test_enumerate_syt_counts_match_hook_lengths():
    for n in range(7):
        for lam in partitions_of(n):
            assert len(enumerate_syt(lam)) == hook_length_count(lam.parts)
            assert f_lambda(lam) == hook_length_count(lam.parts)


def test_enumeration_is_lex_on_words():
    for lam in partitions_of(5):
        words = [t.word() for t in enumerate_syt(lam)]
        assert words == sorted(words)
        assert len(set(words)) == len(words)


def test_superstandard_is_row_filled():
    t = superstandard(Partition((3, 2)))
    assert t.rows() == [[1, 2, 3], [4, 5]]
    # skew entries run |mu|+1 .. |lambda|
    skew = superstandard(SkewShape(Partition((3, 2)), Partition((1,))))
    assert skew.rows() == [[2, 3], [4, 5]]
    assert skew.cell_of(2) == (1, 2)


def test_skew_superstandard_is_standard_for_strips():
    for lam in partitions_of(5):
        for mu in horizontal_strips(lam):
            if mu != lam:
                superstandard(SkewShape(lam, mu))  # raises if not standard


def test_word_and_contents():
    t = superstandard(Partition((2, 1)))
    assert t.word() == (1, 1, 2)
    assert [t.content_of(k) for k in (1, 2, 3)] == [0, 1, -1]


def test_descents_and_desarrangement():
    # word (1,2,1): entry 2 is strictly below entry 1 -> 1 is a descent
    tabs = enumerate_syt(Partition((2, 1)))
    by_word = {t.word(): t for t in tabs}
    assert by_word[(1, 2, 1)].descent_set() == {1}
    assert by_word[(1, 1, 2)].descent_set() == {2}
    assert by_word[(1, 2, 1)].is_desarrangement()
    assert not by_word[(1, 1, 2)].is_desarrangement()


def test_d_mu_values():
    expected = {
        (): 1, (1,): 0, (2,): 0, (1, 1): 1,
        (3,): 0, (2, 1): 1, (1, 1, 1): 0,
        (4,): 0, (3, 1): 1, (2, 2): 1, (2, 1, 1): 1, (1, 1, 1, 1): 1,
    }
    for parts, value in expected.items():
        assert d_mu(Partition(parts)) == value, parts


def test_d_mu_sums_to_derangement_number():
    for n in range(7):
        total = sum(d_mu(mu) * f_lambda(mu) for mu in partitions_of(n))
        assert total == derangement_count(n)


def test_strip_dimension_identity():
    # sum of d^mu over horizontal strips lambda/mu equals f^lambda
    for n in range(7):
        for lam in partitions_of(n):
            assert sum(d_mu(mu) for mu in horizontal_strips(lam)) \
                == f_lambda(lam)


def test_restrict_and_extend():
    t = superstandard(Partition((3, 2)))
    assert t.shape_up_to(3) == Partition((3,))
    assert t.shape_up_to(4) == Partition((3, 1))
    skew = superstandard(SkewShape(Partition((3, 2)), Partition((2,))))
    glued = extend(superstandard(Partition((2,))), skew)
    assert glued.rows() == [[1, 2, 3], [4, 5]]


def test_apply_gen_by_value():
    t = superstandard(Partition((2, 1)))  # rows [1,2],[3]
    swapped = t.apply_gen_by_value(2)
    assert swapped.rows() == [[1, 3], [2]]
    assert t.apply_gen_by_value(1) is None  # 1,2 share a row


def test_dominance_on_tableaux():
    tabs = enumerate_syt(Partition((2, 1)))
    by_word = {t.word(): t for t in tabs}
    assert by_word[(1, 2, 1)].dominance_leq(by_word[(1, 1, 2)])
    assert not by_word[(1, 1, 2)].dominance_leq(by_word[(1, 2, 1)])


def test_hook_length_large():
    # n = 8 staircase-ish shape, against the known SYT count
    assert hook_length_count((4, 3, 1)) == 70
    assert sum(hook_length_count(lam.parts) ** 2
               for lam in partitions_of(6)) == math.factorial(6)
