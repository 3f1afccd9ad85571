from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qshuffle import linalg
from qshuffle.hecke import b2r, r2b, r2r, regular_rep_matrix


def F(x):
    return Fraction(x)


entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


def square_matrices(min_size, max_size):
    return st.integers(min_size, max_size).flatmap(
        lambda size: st.lists(st.lists(entries, min_size=size, max_size=size),
                              min_size=size, max_size=size))


def det(matrix):
    """Determinant by Fraction Gaussian elimination: an oracle for charpoly
    that shares no code with it."""
    m = [list(row) for row in matrix]
    out = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def assert_charpoly_is_det(m):
    """charpoly(m) at y = 0..size equals det(yI - m), which pins all
    size + 1 coefficients."""
    coeffs = linalg.charpoly(m)
    assert len(coeffs) == len(m) + 1
    for y in range(len(m) + 1):
        shifted = [[(y if i == j else 0) - x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        value = Fraction(0)
        for c in coeffs:
            value = value * y + c
        assert value == det(shifted)


def test_rref_known():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert reduced[0] == [F(1), F(0), F(1)]
    assert reduced[1] == [F(0), F(1), F(1)]
    assert linalg.rank(m) == 2


@given(square_matrices(3, 3))
def test_kernel_annihilates(m):
    for k in linalg.kernel(m):
        assert all(sum(m[i][j] * k[j] for j in range(3)) == 0
                   for i in range(3))
    assert len(linalg.kernel(m)) == 3 - linalg.rank(m)


@given(square_matrices(3, 3))
def test_left_kernel_annihilates(m):
    for k in linalg.left_kernel(m):
        assert linalg.vec_mat(k, m) == [F(0)] * 3
        assert any(k)


def test_solve_in_span():
    rows = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert linalg.solve_in_span(rows, [F(2), F(3), F(5)]) == [F(2), F(3)]
    assert linalg.solve_in_span(rows, [F(0), F(0), F(1)]) is None


def test_charpoly_known_2x2():
    # [[2,1],[1,2]] has char poly y^2 - 4y + 3
    m = [[F(2), F(1)], [F(1), F(2)]]
    assert linalg.charpoly(m) == [F(1), F(-4), F(3)]


def test_charpoly_of_diagonal_matches_roots():
    half = Fraction(-1, 2)
    m = [[F(5), F(0), F(0)], [F(0), F(5), F(0)], [F(0), F(0), half]]
    assert linalg.charpoly(m) == linalg.poly_from_roots([(F(5), 2), (half, 1)])


@given(square_matrices(3, 3))
def test_charpoly_constant_term_is_det_sign(m):
    coeffs = linalg.charpoly(m)
    assert len(coeffs) == 4 and coeffs[0] == 1
    # char poly of singular matrix has zero constant term
    if linalg.rank(m) < 3:
        assert coeffs[-1] == 0


@given(square_matrices(1, 6))
def test_charpoly_matches_determinant_oracle(m):
    assert_charpoly_is_det(m)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5), Fraction(1, 2)])
@pytest.mark.parametrize("op", [r2r, b2r, r2b])
def test_charpoly_matches_determinant_oracle_on_regular_rep(op, q0):
    assert_charpoly_is_det(regular_rep_matrix(op(3), q0))


def test_charpoly_of_empty_matrix():
    assert linalg.charpoly([]) == [Fraction(1)]


def test_poly_from_roots():
    # (y-1)^2 (y+2) = y^3 - 3y + 2
    assert linalg.poly_from_roots([(F(1), 2), (F(-2), 1)]) \
        == [F(1), F(0), F(-3), F(2)]


def test_mat_helpers():
    eye = linalg.identity(2)
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.mat_mul(m, eye) == m
    assert linalg.mat_add(m, linalg.mat_scale(m, F(-1))) == linalg.zeros(2, 2)
    assert linalg.vec_mat([F(1), F(1)], m) == [F(4), F(6)]
