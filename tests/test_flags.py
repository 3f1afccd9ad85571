import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import word_matrix
from qshuffle import flags, linalg
from qshuffle.flags import (FlagSpace, UnsupportedSize, flag_count, q_int_at,
                            span, subspace_vectors, verify_commutation,
                            x_spectrum, x_spectrum_check)
from qshuffle.verify import CheckFailed


def mat_mul(a, b):
    return [linalg.vec_mat(row, b) for row in a]


def test_flag_counts():
    assert flag_count(2, 2) == 3
    assert flag_count(3, 2) == 21
    assert flag_count(2, 3) == 4
    assert flag_count(3, 3) == 4 * 13
    assert flag_count(4, 2) == 315
    assert flag_count(4, 3) == 2080
    for n, p in [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3)]:
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
        gens = {i: [[Fraction(x) for x in row]
                    for row in word_matrix(space, (i,))] for i in range(1, n)}
        for i, g in gens.items():
            quad = [[(p - 1) * x + (p if r == c else 0)
                     for c, x in enumerate(row)] for r, row in enumerate(g)]
            assert mat_mul(g, g) == quad
            if i + 1 in gens:
                h = gens[i + 1]
                assert mat_mul(mat_mul(g, h), g) == mat_mul(mat_mul(h, g), h)


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


# -- agreement with uncached subspace arithmetic ----------------------------

def _oracle_span(vectors, p):
    """Reduced row echelon basis over F_p, recomputed on every call."""
    m = [list(r) for r in vectors]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return tuple(tuple(row) for row in m[:r] if any(row))


def _oracle_vectors(basis, p):
    """All vectors of the span (including zero), recomputed on every call."""
    dim = len(basis)
    n = len(basis[0]) if basis else 0
    out = set()
    for coeffs in itertools.product(range(p), repeat=dim):
        out.add(tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % p
                      for k in range(n)))
    return out


class ReferenceFlags:
    """The flag space built flag by flag with no table: every subspace's
    vectors and every span are recomputed where they are needed."""

    def __init__(self, n, p):
        self.n, self.p = n, p
        flags = [()]
        for _dim in range(n):
            grown = set()
            for chain in flags:
                current = chain[-1] if chain else ()
                inside = (_oracle_vectors(current, p) if current
                          else {tuple([0] * n)})
                for v in itertools.product(range(p), repeat=n):
                    if v not in inside:
                        grown.add(chain + (_oracle_span(list(current) + [v],
                                                        p),))
            flags = sorted(grown)
        self.flags = flags
        self.index = {f: i for i, f in enumerate(flags)}
        self.size = len(flags)

    def gen_rows(self, i):
        p, n = self.p, self.n
        rows = []
        for flag in self.flags:
            lower = flag[i - 2] if i >= 2 else ()
            inside_lower = (_oracle_vectors(lower, p) if lower
                            else {tuple([0] * n)})
            seen, row = set(), []
            for v in _oracle_vectors(flag[i], p):
                if v in inside_lower:
                    continue
                mid = _oracle_span(list(lower) + [v], p)
                if mid == flag[i - 1] or mid in seen:
                    continue
                seen.add(mid)
                row.append((self.index[flag[:i - 1] + (mid,) + flag[i:]],
                            Fraction(1)))
            rows.append(row)
        return rows

    def x_matrix(self):
        p, n = self.p, self.n
        mat = [[0] * self.size for _ in range(self.size)]
        zero = {tuple([0] * n)}
        for idx, flag in enumerate(self.flags):
            for i in range(1, n + 1):
                below = _oracle_vectors(flag[i - 2], p) if i >= 2 else zero
                seen = set()
                for v in _oracle_vectors(flag[i - 1], p):
                    if v in below:
                        continue
                    line = _oracle_span([v], p)
                    if line in seen:
                        continue
                    seen.add(line)
                    chain = [] if i == 1 else [line] + [
                        _oracle_span(list(line) + list(flag[j]), p)
                        for j in range(i - 2)]
                    mat[idx][self.index[tuple(chain) + flag[i - 1:]]] += 1
        return mat


def _assert_agrees(space, ref):
    assert space.flags == ref.flags
    assert space.index == ref.index
    for i in range(1, space.n):
        want = ref.gen_rows(i)
        assert space._gen_rows(i) == want
        dense = [[Fraction(0)] * space.size for _ in want]
        for row, sparse in zip(dense, want):
            for j, c in sparse:
                row[j] += c
        assert word_matrix(space, (i,)) == dense
    assert space.x_matrix() == ref.x_matrix()


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_interned_space_matches_uncached_reference(n, p):
    _assert_agrees(FlagSpace(n, p), ReferenceFlags(n, p))


def test_spaces_built_alternately_share_no_table():
    refs = {p: ReferenceFlags(3, p) for p in (2, 3)}
    for p in (2, 3, 2, 3):
        _assert_agrees(FlagSpace(3, p), refs[p])


def test_module_level_span_and_vectors_are_unchanged():
    for p in (2, 3):
        for rows in itertools.product(itertools.product(range(p), repeat=3),
                                      repeat=2):
            assert span(rows, p) == _oracle_span(rows, p)
            basis = span(rows, p)
            if basis:
                assert subspace_vectors(basis, p) == _oracle_vectors(basis,
                                                                     p)


def test_residue_keyed_join_matches_span():
    for n, p in [(3, 2), (3, 3), (4, 2)]:
        space = FlagSpace(n, p)
        bases = {()} | {sub for flag in space.flags for sub in flag}
        for basis in sorted(bases):
            for v in itertools.product(range(p), repeat=n):
                assert space._join(basis, v) == span(list(basis) + [v], p), (
                    n, p, basis, v)


def test_x_matrix_is_a_fresh_copy_each_call():
    space = FlagSpace(3, 2)
    first = space.x_matrix()
    first[0][0] += 7
    first[1] = None
    second = space.x_matrix()
    assert second == ReferenceFlags(3, 2).x_matrix()
    assert second[0][0] == first[0][0] - 7 and second[1] is not None


# -- root stripping on integers against the Fraction loop ---------------------

def fraction_root_multiplicities(coeffs, roots):
    """x_spectrum's root stripping as it was: linalg.poly_divmod on the
    Fraction coefficients, one root at a time."""
    coeffs = [Fraction(c) for c in coeffs]
    mults = {}
    for root in roots:
        while len(coeffs) > 1:
            quotient, remainder = linalg.poly_divmod(coeffs, [1, -root])
            if remainder[0]:
                break
            coeffs = quotient
            mults[root] = mults.get(root, 0) + 1
    if len(coeffs) != 1 or coeffs[0] != 1:
        return None
    return mults


def assert_stripping_agrees(coeffs, roots):
    got = flags._root_multiplicities(coeffs, roots)
    want = fraction_root_multiplicities(coeffs, roots)
    assert got == want
    if got is not None:  # the key order reaches the flags JSON
        assert list(got) == list(want)
    return got


@pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3),
                                 (2, 3), (3, 3)])
def test_integer_root_stripping_matches_fraction_loop(n, p):
    space = FlagSpace(n, p)
    assert space.size <= flags.SPECTRUM_MAX_FLAGS
    coeffs = linalg.charpoly(space.x_matrix())
    roots = flags._allowed_eigenvalues(n, p)
    mults = assert_stripping_agrees(coeffs, roots)
    assert mults is not None and sum(mults.values()) == space.size
    # the same char poly short of one root, or over a set missing one
    assert_stripping_agrees(coeffs, roots[1:])
    assert_stripping_agrees(linalg.poly_divmod(coeffs, [1, -roots[0]])[0],
                            roots)


def test_char_poly_of_twice_the_identity_does_not_split():
    space = FlagSpace(2, 2)
    space.x_matrix = lambda: [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert x_spectrum(space) is None
    assert assert_stripping_agrees(linalg.charpoly(space.x_matrix()),
                                   [3, 0]) is None
    # y - 1/2 has the numerators of y - 1, but no integer root
    assert assert_stripping_agrees([Fraction(1), Fraction(-1, 2)],
                                   [1, 0]) is None


@given(st.lists(st.integers(-4, 14), max_size=8),
       st.sampled_from([[], [1, 0, 1], [1, 1, 1], [1, 0, -2],
                        [1, Fraction(-1, 2)], [1, Fraction(-7, 3), 4]]))
def test_root_stripping_matches_fraction_loop_on_products(roots, extra):
    coeffs = [Fraction(c) for c in linalg.poly_from_roots(
        (r, 1) for r in roots)]
    if extra:
        coeffs = linalg.poly_mul(coeffs, [Fraction(c) for c in extra])
    for allowed in ([13, 4, 1, 0], [7, 3, 1, 0], [3, 0], []):
        assert_stripping_agrees(coeffs, allowed)


# -- failure witnesses --------------------------------------------------------

def test_commutation_failure_names_the_first_differing_entry():
    space = FlagSpace(2, 2)
    bad = space.x_matrix()
    bad[1][2] = 5
    space.x_matrix = lambda: bad
    with pytest.raises(CheckFailed) as info:
        verify_commutation(space)
    assert str(info.value) == (
        "(n, p) = (2, 2): line insertion differs from right action by T* "
        "at (row, col) (1, 2): x has 5, T* has 1")


def test_spectrum_failure_names_an_unsplit_char_poly():
    space = FlagSpace(2, 2)
    space.x_matrix = lambda: [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    with pytest.raises(CheckFailed) as info:
        x_spectrum_check(space)
    assert str(info.value) == (
        "(n, p) = (2, 2): char poly of x does not split over the allowed "
        "set [0, 3]")


def test_spectrum_failure_names_the_forbidden_eigenvalue(monkeypatch):
    monkeypatch.setattr(flags, "x_spectrum",
                        lambda space: {7: 1, 3: 2, 1: 14, 0: 4})
    with pytest.raises(CheckFailed) as info:
        x_spectrum_check(FlagSpace(3, 2))
    assert str(info.value) == (
        "(n, p) = (3, 2): forbidden eigenvalue [n-1]_p = 3 has "
        "multiplicity 2")


def test_spectrum_failure_names_both_zero_multiplicities(monkeypatch):
    # x on (2, 2) is the all-ones 3x3 matrix: rank 1, so 0 is geometric 2
    monkeypatch.setattr(flags, "x_spectrum", lambda space: {3: 2, 0: 1})
    with pytest.raises(CheckFailed) as info:
        x_spectrum_check(FlagSpace(2, 2))
    assert str(info.value) == (
        "(n, p) = (2, 2): eigenvalue 0 has geometric multiplicity 2 "
        "(size - rank) but algebraic multiplicity 1")
