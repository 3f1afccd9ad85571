from fractions import Fraction

import pytest

from qshuffle import linalg
from qshuffle.flags import (FlagSpace, UnsupportedSize, flag_count, q_int_at,
                            span, verify_commutation, x_spectrum,
                            x_spectrum_check)


def test_flag_counts():
    assert flag_count(2, 2) == 3
    assert flag_count(3, 2) == 21
    assert flag_count(2, 3) == 4
    assert flag_count(3, 3) == 4 * 13
    for n, p in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]:
        assert FlagSpace(n, p).size == flag_count(n, p)


def test_unsupported_sizes():
    with pytest.raises(UnsupportedSize):
        FlagSpace(5, 2)
    with pytest.raises(UnsupportedSize):
        FlagSpace(2, 5)


def test_span_canonical():
    assert span([(1, 1), (0, 1)], 2) == ((1, 0), (0, 1))
    assert span([(2, 2)], 3) == ((1, 1),)


def test_gen_matrices_satisfy_hecke_relations_at_p():
    for n, p in [(2, 2), (3, 2), (2, 3)]:
        space = FlagSpace(n, p)
        gens = {i: [[Fraction(x) for x in row] for row in space.gen_matrix(i)]
                for i in range(1, n)}
        for i, g in gens.items():
            quad = [[(p - 1) * x + (p if r == c else 0)
                     for c, x in enumerate(row)] for r, row in enumerate(g)]
            assert linalg.mat_mul(g, g) == quad
            if i + 1 in gens:
                h = gens[i + 1]
                assert linalg.mat_mul(linalg.mat_mul(g, h), g) \
                    == linalg.mat_mul(linalg.mat_mul(h, g), h)


def test_x_example_smallest_case():
    # n = 2, p = 2: x maps each flag to the sum of all three flags
    space = FlagSpace(2, 2)
    mat = space.x_matrix()
    assert all(mat[i][j] == 1 for i in range(3) for j in range(3))


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_commutation(n, p):
    assert verify_commutation(FlagSpace(n, p))


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_x_spectrum(n, p):
    space = FlagSpace(n, p)
    assert x_spectrum_check(space)
    mults = x_spectrum(space)
    assert sum(mults.values()) == space.size
    allowed = {q_int_at(n - j, p) for j in range(n + 1) if j != 1}
    assert set(mults) <= allowed
    assert q_int_at(n - 1, p) not in mults
    # top eigenvalue [n]_p is simple
    assert mults[q_int_at(n, p)] == 1


def test_x_spectrum_values_n3_p2():
    mults = x_spectrum(FlagSpace(3, 2))
    assert mults == {7: 1, 1: 14, 0: 6}
