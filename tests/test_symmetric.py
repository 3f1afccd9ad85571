import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qshuffle.symmetric import (Composition, Permutation, all_permutations,
                                derangement_count, min_coset_reps,
                                young_subgroup)


perms = st.integers(1, 5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Permutation))


def compose(a, b):
    """The product a b, (a b)(i) = a(b(i)): b is applied first."""
    return Permutation(a.one_line[i - 1] for i in b.one_line)


def inverse(w):
    return Permutation(w.one_line.index(v) + 1 for v in range(1, w.n + 1))


def transposition(i, j, n):
    """The permutation of S_n swapping i and j."""
    line = list(range(1, n + 1))
    line[i - 1], line[j - 1] = j, i
    return Permutation(line)


def test_apply_gen_right_examples():
    assert Permutation((1, 2, 3)).apply_gen_right(2) == Permutation((1, 3, 2))
    assert Permutation((1, 3, 2)).apply_gen_right(1) == Permutation((3, 1, 2))


def test_gen_out_of_range():
    with pytest.raises(IndexError):
        Permutation((1, 2)).apply_gen_right(2)


@given(perms)
def test_inverse(w):
    e = Permutation.identity(w.n)
    assert compose(w, inverse(w)) == e
    assert compose(inverse(w), w) == e
    assert inverse(w).length() == w.length()


def test_length_is_inversion_count():
    for w in all_permutations(4):
        line = w.one_line
        inv = sum(1 for a, b in itertools.combinations(range(4), 2)
                  if line[a] > line[b])
        assert w.length() == inv


@given(perms)
def test_reduced_word_rebuilds_permutation(w):
    word = w.reduced_word()
    assert len(word) == w.length()
    rebuilt = Permutation.identity(w.n)
    for i in word:
        rebuilt = rebuilt.apply_gen_right(i)
    assert rebuilt == w


def test_reduced_word_example():
    assert Permutation((3, 1, 2)).reduced_word() == (2, 1)


@given(perms)
def test_lehmer_rank_roundtrip(w):
    assert all_permutations(w.n)[w.lehmer_rank()] == w


def test_lehmer_order_is_enumeration_order():
    for n in range(1, 6):
        ws = all_permutations(n)
        assert [w.lehmer_rank() for w in ws] == list(range(math.factorial(n)))


def test_transposition():
    t = transposition(2, 4, 5)
    assert list(t.one_line) == [1, 4, 3, 2, 5]


def test_descents_left():
    # left descents of w are the i with l(s_i w) < l(w)
    for w in all_permutations(4):
        expected = {i for i in range(1, 4)
                    if compose(transposition(i, i + 1, 4), w).length()
                    < w.length()}
        assert set(w.descents_left()) == expected


def test_composition_descents():
    assert Composition([2, 3, 1]).descent_set() == {2, 5}
    with pytest.raises(ValueError):
        Composition([2, 0, 1])


def test_coset_factorization_unique():
    # every w factors uniquely as v * u with v in S_alpha and u minimal
    for parts in [(2, 2), (1, 3), (3, 1), (2, 1, 1)]:
        alpha = Composition(parts)
        reps = min_coset_reps(alpha)
        sub = young_subgroup(alpha)
        assert len(reps) * len(sub) == math.factorial(alpha.n)
        products = {compose(v, u) for u in reps for v in sub}
        assert len(products) == math.factorial(alpha.n)
        for u in reps:
            for v in sub:
                assert compose(v, u).length() == u.length() + v.length()


def test_derangement_numbers():
    assert [derangement_count(j) for j in range(7)] == [1, 0, 1, 2, 9, 44, 265]
