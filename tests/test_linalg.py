import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qshuffle import linalg, markov, spectra
from qshuffle.flags import FlagSpace
from conftest import int_mat_mul, lcm_sum, regular_matrix, word_matrix
from qshuffle.hecke import b2r, r2b, r2r
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


def berkowitz(matrix):
    """det(yI - M) as monic Fractions, highest degree first, by the
    division-free Berkowitz algorithm over Python ints on d*M, d the lcm of
    the entry denominators (S. J. Berkowitz, Inf. Process. Lett. 18 (1984)
    147-150): the char poly of a leading block [[A, C], [R, a]] is the
    Toeplitz matrix of (1, -a, -RC, -RAC, ...) times that of A; coefficient
    k is then divided by d^k.  The reference oracle for linalg.charpoly."""
    d = math.lcm(*(x.denominator for row in matrix for x in row))
    m = [[int(x * d) for x in row] for row in matrix]
    poly, block = [1], []  # block: sparse rows (col, entry) of A
    for k, row in enumerate(m):
        r = [(j, x) for j, x in enumerate(row[:k]) if x]
        v = [m[i][k] for i in range(k)]
        toeplitz = [1, -row[k]]
        for _ in range(k):
            toeplitz.append(-sum(x * v[j] for j, x in r))
            v = [sum(x * v[j] for j, x in b) for b in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
        for i in range(k):
            if m[i][k]:
                block[i].append((k, m[i][k]))
        block.append([(j, x) for j, x in enumerate(row[:k + 1]) if x])
    return [Fraction(c, d ** k) for k, c in enumerate(poly)]


def assert_charpoly_is_berkowitz(m):
    got = linalg.charpoly(m)
    assert got == berkowitz(m)
    assert all(type(c) is Fraction for c in got)


def test_rref_known():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    reduced, pivots = linalg.rref(m)
    assert pivots == [0, 1]
    assert reduced[0] == ([1, 0, 1], 1)
    assert reduced[1] == ([0, 1, 1], 1)
    assert reduced[2] == ([0, 0, 0], 1)
    thirds = [[Fraction(2, 3), Fraction(4, 3)]]
    assert linalg.rref(thirds) == ([([1, 2], 1)], [0])
    assert linalg.rref([[0, 6, -4]]) == ([([0, 3, -2], 3)], [1])
    assert linalg.rank(m) == 2


@given(square_matrices(3, 3))
def test_kernel_annihilates(m):
    for num, den in linalg.kernel(m):
        assert all(sum(m[i][j] * num[j] for j in range(3)) == 0
                   for i in range(3))
        assert den > 0 and math.gcd(den, *num) == 1
    assert len(linalg.kernel(m)) == 3 - linalg.rank(m)


@given(square_matrices(3, 3))
def test_left_kernel_annihilates(m):
    for num, den in linalg.left_kernel(m):
        assert linalg.vec_mat(num, m) == [F(0)] * 3
        assert any(num) and den > 0 and math.gcd(den, *num) == 1


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
    assert_charpoly_is_det(regular_matrix(op(3), q0))


def square_of(entries):
    """Square matrices of size 0 to 12 with entries drawn from entries."""
    return st.integers(0, 12).flatmap(
        lambda size: st.lists(st.lists(entries, min_size=size,
                                       max_size=size),
                              min_size=size, max_size=size))


@given(square_of(st.integers(-10 ** 6, 10 ** 6)))
def test_charpoly_matches_berkowitz_on_integer_matrices(m):
    assert_charpoly_is_berkowitz(m)


@given(square_of(st.sampled_from([0, 0, 0, 1])))
def test_charpoly_matches_berkowitz_on_sparse_01_matrices(m):
    assert_charpoly_is_berkowitz(m)


@given(square_of(st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30),
              st.sampled_from([1, 2, 3, 5, 7, 12, 5 ** 6])))))
def test_charpoly_matches_berkowitz_on_rational_matrices(m):
    assert_charpoly_is_berkowitz(m)


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_charpoly_matches_berkowitz_on_flag_x(n, p):
    assert_charpoly_is_berkowitz(FlagSpace(n, p).x_matrix())


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(1, 2),
                                Fraction(7, 5)])
def test_charpoly_matches_berkowitz_on_operators_at_n4(q0):
    for op in (r2r, b2r, r2b):
        assert_charpoly_is_berkowitz(regular_matrix(op(4), q0))
    if q0 >= 1:  # the walk is defined for q0 >= 1 only
        assert_charpoly_is_berkowitz(markov.transition_matrix(4, q0))


def sylvester_hadamard(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def root_floor(n, k):
    """The largest x with x^k <= n."""
    x = round(n ** (1 / k))
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


@pytest.mark.parametrize("primes", [1, 2, 3])
def test_charpoly_of_scaled_hadamard_needs_every_prime(primes):
    # s * H_16 has orthogonal rows of integer norm 4s, so |det| = (4s)^16
    # meets Hadamard's bound, which for s >= 4 is the largest of the
    # coefficient bounds.  s puts |det| between half the product m of the
    # first `primes` primes of the ladder and m itself, so the CRT must go
    # on to one prime more: modulo m, which exceeds |det| but not 2 |det|,
    # the symmetric residue of det is det - m.
    m = math.prod(linalg._proth_prime(i) for i in range(primes))
    scale = root_floor(m // 2, 16) // 4 + 1
    assert m // 2 < (4 * scale) ** 16 < m
    hadamard = [[scale * x for x in row] for row in sylvester_hadamard(16)]
    coeffs = linalg.charpoly(hadamard)
    assert coeffs[-1] == (4 * scale) ** 16
    assert coeffs == berkowitz(hadamard)


def test_charpoly_bound_rounds_row_norms_up():
    # Blocks [[a, b], [-b, a]] have orthogonal rows of norm sqrt(a^2 + b^2),
    # strictly between a and a + 1, so |det| = (a^2 + b^2)^8 meets
    # Hadamard's bound up to the rounding of the norms.  a and b put |det|
    # above half the first prime and a^16 below it: with norms rounded
    # down, the CRT would stop after that one prime.
    half = linalg._proth_prime(0) // 2
    a = root_floor(half, 16)
    b = next(b for b in range(1, a) if (a * a + b * b) ** 8 > half)
    assert a * a + b * b < (a + 1) ** 2
    m = [[0] * 16 for _ in range(16)]
    for i in range(0, 16, 2):
        m[i][i], m[i][i + 1], m[i + 1][i], m[i + 1][i + 1] = a, b, -b, a
    coeffs = linalg.charpoly(m)
    assert coeffs[-1] == (a * a + b * b) ** 8
    assert coeffs == berkowitz(m)


def assert_pocklington_prime(n, shift):
    """Prove n = k * 2^shift + 1 (k odd, 2^shift > sqrt(n)) prime by
    Pocklington's criterion: some a has a^(n-1) = 1 (mod n) and
    gcd(a^((n-1)/2) - 1, n) = 1.  No such a exists for a composite n."""
    k = (n - 1) >> shift
    assert n == (k << shift) + 1 and k % 2 == 1 and (1 << shift) ** 2 > n
    assert any(pow(a, n - 1, n) == 1
               and math.gcd(pow(a, (n - 1) // 2, n) - 1, n) == 1
               for a in range(2, 200)), f"no Pocklington witness for {n}"


def test_every_modulus_is_a_proven_prime(monkeypatch):
    used = []
    original = linalg._charpoly_mod

    def recorded(a, p):
        used.append(p)
        return original(a, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", recorded)
    linalg.charpoly([[10 ** 40 * x for x in row]
                     for row in sylvester_hadamard(16)])
    linalg.charpoly(regular_matrix(r2r(4), Fraction(7, 5)))
    assert len(set(used)) >= 4
    for p in set(used):
        assert p.bit_length() in range(249, 260)
        assert_pocklington_prime(p, 248)


def test_charpoly_skips_a_prime_dividing_a_denominator(monkeypatch):
    used = []
    original = linalg._charpoly_mod

    def recorded(a, p):
        used.append(p)
        return original(a, p)

    monkeypatch.setattr(linalg, "_charpoly_mod", recorded)
    first = linalg._proth_prime(0)
    m = [[Fraction(1, first), F(1)], [F(2), Fraction(3, 7)]]
    assert_charpoly_is_berkowitz(m)
    assert used and first not in used


def test_charpoly_of_empty_matrix():
    assert linalg.charpoly([]) == [Fraction(1)]


def test_poly_from_roots():
    # (y-1)^2 (y+2) = y^3 - 3y + 2
    assert linalg.poly_from_roots([(F(1), 2), (F(-2), 1)]) \
        == [F(1), F(0), F(-3), F(2)]


polys = st.lists(st.builds(Fraction, st.integers(-20, 20),
                           st.integers(1, 6)), min_size=1, max_size=7)


@given(polys, polys)
def test_poly_product_matches_values(a, b):
    # coefficients highest degree first: a product of values at each point
    def at(p, x):
        return sum(c * x ** k for k, c in enumerate(reversed(p)))

    product = linalg.poly_mul(a, b)
    assert len(product) == len(a) + len(b) - 1
    for x in (F(0), F(1), F(-2), Fraction(3, 5)):
        assert at(product, x) == at(a, x) * at(b, x)


@given(polys, polys)
def test_poly_divmod_by_monic(a, tail):
    b = [F(1)] + tail[1:]  # monic, of degree 0 to 6
    quotient, remainder = linalg.poly_divmod(a, b)
    assert len(remainder) == min(len(a), len(b) - 1)  # deg r < deg b
    # a = quotient b + remainder, the remainder aligned at the low end
    total = linalg.poly_mul(quotient, b) if quotient else [F(0)] * len(a)
    low = len(total) - len(remainder)
    assert total[:low] + [x + r for x, r in zip(total[low:], remainder)] == a


def test_mat_helpers():
    m = [[F(1), F(2)], [F(3), F(4)]]
    assert int_mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) \
        == [[2, 1], [4, 3]]
    assert linalg.vec_mat([F(1), F(1)], m) == [F(4), F(6)]


int_or_fraction = st.one_of(st.integers(-6, 6), entries)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_vec_mat_matches_fraction_oracle(rows, cols, data):
    # int and Fraction entries, zero entries in v and m, v all zero
    v = data.draw(st.lists(int_or_fraction, min_size=rows, max_size=rows))
    m = data.draw(st.lists(st.lists(int_or_fraction, min_size=cols,
                                    max_size=cols),
                           min_size=rows, max_size=rows))
    want = [sum((F(x) * F(row[j]) for x, row in zip(v, m)), F(0))
            for j in range(len(m[0]))]
    got = linalg.vec_mat(v, m)
    assert got == want and all(type(x) is Fraction for x in got)
    zero = linalg.vec_mat([0] * len(v), m)
    assert zero == [F(0)] * len(m[0])
    assert all(type(x) is Fraction for x in zero)
    # the boundary round trip, in lowest terms
    num, den = linalg._ints(v)
    assert linalg._fractions(num, den) == v and math.gcd(den, *num) == 1
    # the lcm sum of the rows' integer forms is their Fraction sum, and of
    # m over one denominator and m / 2 is 3/2 m
    forms = [linalg._ints(row) for row in m]
    (total,), den = lcm_sum([([num], d) for num, d in forms])
    assert linalg._fractions(total, den) == [
        sum((F(row[j]) for row in m), F(0)) for j in range(cols)]
    rows, d = linalg._at_lcm(forms)
    both, den = lcm_sum([(rows, d), (rows, 2 * d)])
    assert [linalg._fractions(row, den) for row in both] == [
        [Fraction(3, 2) * x for x in row] for row in m]


@given(st.lists(entries, min_size=1, max_size=6), st.integers(1, 60),
       st.data())
def test_reduced_form_is_unique(v, k, data):
    # (k num, k den) reduces to the form of v for every k > 0, two forms
    # are equal exactly when their Fraction vectors are, and each form
    # helper gives the reduced form of its Fraction result
    form = linalg._ints(v)
    num, den = form
    assert all_reduced_forms([form]) and linalg._fractions(num, den) == v
    assert linalg._reduce([k * x for x in num], k * den) == form
    changed = data.draw(st.dictionaries(st.integers(0, len(v) - 1), entries,
                                        max_size=2))
    w = [changed.get(i, x) for i, x in enumerate(v)]
    assert (linalg._ints(w) == form) == (w == v)
    c, a, b = data.draw(st.tuples(entries, entries, entries))
    scaled = linalg._scale(form, c)
    assert all_reduced_forms([scaled])
    assert scaled == linalg._ints([c * x for x in v])
    both = linalg._combine(linalg._ints([a, b]), [form, linalg._ints(w)])
    assert all_reduced_forms([both]) and both == linalg._ints(
        [a * x + b * y for x, y in zip(v, w)])
    ratios = [(k * x.numerator, k * x.denominator) for x in v]
    assert linalg._form(ratios) == form


roots = st.lists(st.tuples(st.one_of(st.integers(-5, 5), entries),
                           st.integers(1, 3)), max_size=4)


@given(roots)
def test_poly_from_roots_matches_fraction_oracle(pairs):
    # repeated, negative and non-integral roots, and the empty product
    want = [F(1)]
    for root, mult in pairs:
        for _ in range(mult):  # times (y - root), highest degree first
            want = [a - F(root) * b for a, b in zip(want + [F(0)],
                                                     [F(0)] + want)]
    got = linalg.poly_from_roots(pairs)
    assert got == want and all(type(x) is Fraction for x in got)


def test_poly_from_roots_edge_cases():
    assert linalg.poly_from_roots([]) == [F(1)]
    assert linalg.poly_from_roots([(Fraction(-2, 3), 2)]) \
        == [F(1), Fraction(4, 3), Fraction(4, 9)]
    assert linalg.poly_from_roots([(F(0), 2), (3, 1)]) \
        == [F(1), F(-3), F(0), F(0)]


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


def mat_mul(a, b):
    """Product of Fraction matrices over Z, by conftest.int_mat_mul: each
    operand is scaled by the lcm of its denominators, and each entry x of
    the integer product leaves as Fraction(x, d_a * d_b)."""
    d_a = math.lcm(*(x.denominator for row in a for x in row))
    d_b = math.lcm(*(x.denominator for row in b for x in row))
    ints = int_mat_mul(
        [[int(x * d_a) for x in row] for row in a],
        [[int(x * d_b) for x in row] for row in b])
    return [[Fraction(x, d_a * d_b) for x in row] for row in ints]


def fraction_mat_mul(a, b):
    """Matrix product with every step a Fraction operation: the oracle for
    int_mat_mul on cleared Fraction matrices."""
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


def all_reduced_forms(forms):
    """Each (num, den) has int entries, den > 0 and gcd(den, *num) = 1."""
    return all(type(den) is int and den > 0 and math.gcd(den, *num) == 1
               and all(type(x) is int for x in num) for num, den in forms)


def form_rref(matrix):
    """fraction_rref, on the entries as Fractions, with each reduced row
    read as its reduced form: the oracle for linalg.rref, whose rows are
    forms."""
    reduced, pivots = fraction_rref([[Fraction(x) for x in row]
                                     for row in matrix])
    return [linalg._ints(row) for row in reduced], pivots


def kernel_results(m):
    """Everything linalg derives from rref, on m."""
    return (linalg.rref(m), linalg.rank(m), linalg.kernel(m),
            linalg.left_kernel(m))


def assert_rref_matches_oracle(m):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "rref", form_rref)
        expect = kernel_results(m)
    got = kernel_results(m)
    assert got == expect
    (reduced, _), _, kern, left = got
    assert all_reduced_forms(reduced + kern + left)


def assert_mat_mul_matches_oracle(a, b):
    got = mat_mul(a, b)
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
    assert (reduced, pivots) == form_rref(m)
    assert pivots == [0, 1] and reduced[2] == ([0, 0, 0], 1)
    assert_rref_matches_oracle(m)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5), Fraction(1, 2)])
@pytest.mark.parametrize("op, factored", [(r2r, spectra.r2r_charpoly_factored),
                                          (b2r, spectra.b_charpoly_factored),
                                          (r2b, spectra.b_charpoly_factored)])
def test_integer_kernels_on_regular_rep(op, factored, q0):
    mat = regular_matrix(op(3), q0)
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
        mats = [word_matrix(wm, (i,)) for i in range(1, 3)]
        mats += [idempotent_matrix(wm, t) for t in enumerate_syt(lam)]
        for a in mats:
            assert_rref_matches_oracle(a)
            for b in mats:
                assert_mat_mul_matches_oracle(a, b)
