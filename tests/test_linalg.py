import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qshuffle import linalg, spectra
from qshuffle.hecke import b2r, r2b, r2r, regular_rep_matrix
from qshuffle.seminormal import word_module
from qshuffle.tableaux import enumerate_syt, partitions_of


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
    eye = [[F(1), F(0)], [F(0), F(1)]]
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert linalg.mat_mul(m, eye) == m
    assert linalg.mat_mul(m, [[F(-1), F(0)], [F(0), F(-1)]]) \
        == [[-x for x in row] for row in m]
    assert linalg.int_mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) \
        == [[2, 1], [4, 3]]
    assert linalg.vec_mat([F(1), F(1)], m) == [F(4), F(6)]


# -- the integer kernels against the Fraction arithmetic they replaced ----

def fraction_rref(matrix):
    """RREF with every step a Fraction operation, the same pivot rule as
    linalg.rref: the oracle for its elimination over Z."""
    m = [list(row) for row in matrix]
    if not m:
        return [], []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot_row = None
        for i in range(rows - 1, r - 1, -1):  # largest index first
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_mat_mul(a, b):
    """Matrix product with every step a Fraction operation: the oracle for
    linalg.mat_mul."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai, oi = a[i], out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def all_fractions(vectors):
    return all(type(x) is Fraction for v in vectors for x in v)


def kernel_results(m):
    """Everything linalg derives from rref, on m and on two right-hand
    sides: the sum of the rows (always solvable) and the last unit vector."""
    cols = len(m[0])
    unit = [Fraction(0)] * (cols - 1) + [Fraction(1)]
    row_sum = [sum(col, Fraction(0)) for col in zip(*m)]
    return (linalg.rref(m), linalg.rank(m), linalg.kernel(m),
            linalg.left_kernel(m), linalg.solve_in_span(m, row_sum),
            linalg.solve_in_span(m, unit))


def assert_rref_matches_oracle(m):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "rref", fraction_rref)
        expect = kernel_results(m)
    got = kernel_results(m)
    assert got == expect
    (reduced, _), _, kern, left, in_span, unit = got
    assert all_fractions(reduced + kern + left + [in_span]
                         + ([unit] if unit is not None else []))


def assert_mat_mul_matches_oracle(a, b):
    got = linalg.mat_mul(a, b)
    assert got == fraction_mat_mul(a, b)
    assert all_fractions(got)


def idempotent_matrix(wm, t):
    """The Fraction matrix of p_t on wm, from its integer form."""
    d, mat = wm.idempotent_int_matrix(t)
    return [[Fraction(x, d) for x in row] for row in mat]


mixed = st.one_of(st.just(Fraction(0)),
                  st.builds(Fraction, st.integers(-30, 30),
                            st.sampled_from([1, 2, 3, 5, 7, 12])))


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    """Mixed denominators and signs, with some rows and columns zeroed (all
    of them, sometimes), and sometimes of low rank as a product through an
    inner dimension of 1 to 3."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols

    def dense(r, c):
        return st.lists(st.lists(mixed, min_size=c, max_size=c),
                        min_size=r, max_size=r)

    if draw(st.booleans()):
        inner = draw(st.integers(1, 3))
        m = fraction_mat_mul(draw(dense(rows, inner)), draw(dense(inner, cols)))
    else:
        m = draw(dense(rows, cols))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(m)]


@given(rational_matrices())
def test_rref_and_kernels_match_fraction_oracle(m):
    assert_rref_matches_oracle(m)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_mat_mul_matches_fraction_oracle(rows, inner, cols, data):
    assert_mat_mul_matches_oracle(
        data.draw(rational_matrices(rows, inner)),
        data.draw(rational_matrices(inner, cols)))


@given(rational_matrices(), st.integers(1, 7))
def test_rank_counts_the_pivots_of_rref(m, scale):
    # forward elimination finds as many pivots as Gauss-Jordan, on Fraction
    # matrices and on the integer matrices scale * d * m
    assert linalg.rank(m) == len(linalg.rref(m)[1])
    d = math.lcm(*(x.denominator for row in m for x in row))
    ints = [[int(x * d * scale) for x in row] for row in m]
    assert all(type(x) is int for row in ints for x in row)
    assert linalg.rank(ints) == len(linalg.rref(m)[1])


def test_rank_negative_pivots_and_mixed_denominators():
    m = [[F(0), Fraction(-3, 4), Fraction(5, 6)],
         [Fraction(-2, 3), Fraction(1, 2), F(0)],
         [Fraction(-4, 3), Fraction(-1, 2), Fraction(5, 3)]]
    assert linalg.rank(m) == len(linalg.rref(m)[1]) == 2
    assert linalg.rank([[0, -2, 4], [0, 0, 0], [0, -1, 2]]) == 1
    assert linalg.rank([[0, 0], [0, 0]]) == 0
    assert linalg.rank([]) == 0


def test_rref_negative_pivots_and_mixed_denominators():
    m = [[F(0), Fraction(-3, 4), Fraction(5, 6)],
         [Fraction(-2, 3), Fraction(1, 2), F(0)],
         [Fraction(-4, 3), Fraction(-1, 2), Fraction(5, 3)]]
    reduced, pivots = linalg.rref(m)
    assert (reduced, pivots) == fraction_rref(m)
    assert pivots == [0, 1] and reduced[2] == [F(0)] * 3
    assert_rref_matches_oracle(m)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5), Fraction(1, 2)])
@pytest.mark.parametrize("op, factored", [(r2r, spectra.r2r_charpoly_factored),
                                          (b2r, spectra.b_charpoly_factored),
                                          (r2b, spectra.b_charpoly_factored)])
def test_integer_kernels_on_regular_rep(op, factored, q0):
    mat = regular_rep_matrix(op(3), q0)
    assert_mat_mul_matches_oracle(mat, mat)
    assert_rref_matches_oracle(mat)
    for value in {e.eval(q0) for e, _ in factored(3)}:
        shifted = [[x - (value if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        assert_rref_matches_oracle(shifted)
        assert_mat_mul_matches_oracle(shifted, mat)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5), Fraction(1, 2)])
def test_integer_kernels_on_word_modules(q0):
    for lam in partitions_of(3):
        wm = word_module(lam, q0)
        mats = [wm.gen_matrix(i) for i in range(1, 3)]
        mats += [idempotent_matrix(wm, t) for t in enumerate_syt(lam)]
        for a in mats:
            assert_rref_matches_oracle(a)
            for b in mats:
                assert_mat_mul_matches_oracle(a, b)
