"""Complete flags over small prime fields and the line-insertion operator.

A flag is a chain 0 < F_1 < ... < F_n = F_p^n with dim F_i = i; subspaces
are canonicalized by reduced row echelon form over F_p so equality is
structural.  The generator T_{s_i} acts by replacing F_i with the other p
subspaces between F_{i-1} and F_{i+1}; the line-insertion operator x sums,
over every line L <= F_i not inside F_{i-1}, the flag
    L < L + F_1 < ... < L + F_{i-2} < F_i < ... < F_n.
Both actions are integer matrices on the flag basis and satisfy the Hecke
relations at q = p; the generators make the flags a HeckeModule at q0 = p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .hecke import CheckFailed, HeckeModule, top_ops


# The largest space whose x spectrum the CLI computes: the char poly is a
# Berkowitz O(N^4), about 30 s at (4, 2) with N = 315 flags and about 1,900
# times that at (4, 3) with N = 2,080.
SPECTRUM_MAX_FLAGS = 315


class UnsupportedSize(ValueError):
    pass


def _rref_gf(rows, p):
    """Canonical reduced row echelon basis (tuple of tuples) over F_p."""
    m = [list(r) for r in rows]
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


def span(vectors, p):
    return _rref_gf(list(vectors), p)


def subspace_vectors(basis, p):
    """All vectors of the span (including zero)."""
    dim = len(basis)
    n = len(basis[0]) if basis else 0
    out = set()
    for coeffs in itertools.product(range(p), repeat=dim):
        v = tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) % p
                  for k in range(n))
        out.add(v)
    return out


class FlagSpace(HeckeModule):
    """All complete flags of F_p^n, in a deterministic order, as a right
    H_n(p)-module.

    The subspace arithmetic is interned on the instance: each subspace's
    vector set, each span of a subspace and one vector, and each list of
    the distinct such spans inside a larger subspace is computed once per
    space, on first use, and freed with it.
    """

    def __init__(self, n, p):
        check_size(n, p)
        self.n = n
        self.p = p
        self._vector_sets = {}  # basis -> set of the subspace's vectors
        self._spans = {}        # (basis, v) -> span(basis + [v])
        self._outside = {}      # (base, lower, upper) -> _joins_outside
        whole = tuple(tuple(1 if k == j else 0 for k in range(n))
                      for j in range(n))
        flags = [()]
        for _dim in range(n):
            grown = set()
            for chain in flags:
                current = chain[-1] if chain else ()
                for bigger in self._joins_outside(current, current, whole):
                    grown.add(chain + (bigger,))
            flags = sorted(grown)
        self.flags = flags
        self.index = {f: i for i, f in enumerate(flags)}
        self.size = len(flags)
        assert all(len(f[i]) == i + 1 for f in flags for i in range(n))
        super().__init__(n, p, self.size,
                         {i: self._gen_rows(i) for i in range(1, n)})

    def _vectors(self, basis):
        """The vectors of the subspace spanned by basis ({0} for ())."""
        vectors = self._vector_sets.get(basis)
        if vectors is None:
            vectors = self._vector_sets[basis] = (
                subspace_vectors(basis, self.p) if basis
                else {(0,) * self.n})
        return vectors

    def _join(self, basis, v):
        """span(basis + [v]): the canonical basis of the subspace + v."""
        key = (basis, v)
        out = self._spans.get(key)
        if out is None:
            out = self._spans[key] = span(list(basis) + [v], self.p)
        return out

    def _joins_outside(self, base, lower, upper):
        """The distinct spans base + v over the vectors v of upper outside
        lower, in the order of first appearance among upper's vectors."""
        key = (base, lower, upper)
        out = self._outside.get(key)
        if out is None:
            inside = self._vectors(lower)
            out = self._outside[key] = list(dict.fromkeys(
                self._join(base, v) for v in self._vectors(upper)
                if v not in inside))
        return out

    def _gen_rows(self, i):
        """Sparse rows of T_{s_i}: swap out F_i for the other subspaces."""
        rows = []
        for flag in self.flags:
            lower = flag[i - 2] if i >= 2 else ()
            rows.append([(self.index[flag[:i - 1] + (mid,) + flag[i:]],
                          Fraction(1))
                         for mid in self._joins_outside(lower, lower, flag[i])
                         if mid != flag[i - 1]])
        return rows

    def x_matrix(self):
        """Integer matrix of the line-insertion operator."""
        mat = [[0] * self.size for _ in range(self.size)]
        for idx, flag in enumerate(self.flags):
            mat[idx][idx] += 1  # i = 1: the one line is F_1 itself
            for i in range(2, self.n + 1):
                for line in self._joins_outside((), flag[i - 2], flag[i - 1]):
                    chain = (line,) + tuple(self._join(flag[j], line[0])
                                            for j in range(i - 2))
                    mat[idx][self.index[chain + flag[i - 1:]]] += 1
        return mat

    def _terms_at(self, elem):
        """The flag action needs integer coefficients at q = p."""
        terms = super()._terms_at(elem)
        if any(c.denominator != 1 for _word, c in terms):
            raise ValueError("flag action needs integer coefficients")
        return terms


def check_size(n, p):
    """Raise UnsupportedSize unless FlagSpace(n, p) is in range."""
    if p not in (2, 3) or n > 4 or n < 1:
        raise UnsupportedSize("supported range: n <= 4, p in {2, 3}")


def q_int_at(m, p):
    return sum(p ** k for k in range(m))


def flag_count(n, p):
    """[n]!_p = prod_k [k]_p."""
    out = 1
    for k in range(1, n + 1):
        out *= q_int_at(k, p)
    return out


def _where(space):
    return f"(n, p) = ({space.n}, {space.p})"


def verify_commutation(space):
    """Line insertion equals right action by the q-random-to-top element;
    a failure raises CheckFailed naming (n, p) and the first differing
    (row, col) with both entries."""
    _, tstar = top_ops(space.n)
    x, tmat = space.x_matrix(), space.hecke_matrix(tstar)
    if x == tmat:
        return True
    r, c = next((r, c) for r, (a, b) in enumerate(zip(x, tmat))
                for c, (u, w) in enumerate(zip(a, b)) if u != w)
    raise CheckFailed(f"{_where(space)}: line insertion differs from right "
                      f"action by T* at (row, col) ({r}, {c}): x has "
                      f"{x[r][c]}, T* has {tmat[r][c]}")


def _allowed_eigenvalues(n, p):
    """[n-j]_p for j in [0, n], j != 1."""
    return [q_int_at(n - j, p) for j in range(n + 1) if j != 1]


def x_spectrum(space):
    """Eigenvalue multiplicities of x, or None if the char poly does not
    split over the allowed values {[n-j]_p : j in [0,n], j != 1}."""
    mat = [[Fraction(x) for x in row] for row in space.x_matrix()]
    coeffs = linalg.charpoly(mat)
    mults = {}
    for root in _allowed_eigenvalues(space.n, space.p):
        while len(coeffs) > 1 and _poly_eval(coeffs, root) == 0:
            coeffs = _deflate(coeffs, root)
            mults[root] = mults.get(root, 0) + 1
    if len(coeffs) != 1 or coeffs[0] != 1:
        return None
    return mults


def x_spectrum_check(space):
    """Char poly of x splits over {[n-j]_p : j in [0,n], j != 1} with
    [n-1]_p absent, and the 0-eigenspace has matching dimension; a failure
    raises CheckFailed naming (n, p) and which of the three failed."""
    n, p = space.n, space.p
    mults = x_spectrum(space)
    if mults is None:
        raise CheckFailed(f"{_where(space)}: char poly of x does not split "
                          f"over the allowed set "
                          f"{sorted(_allowed_eigenvalues(n, p))}")
    forbidden = q_int_at(n - 1, p)
    if forbidden in mults:
        raise CheckFailed(f"{_where(space)}: forbidden eigenvalue [n-1]_p = "
                          f"{forbidden} has multiplicity {mults[forbidden]}")
    geometric = space.size - linalg.rank(space.x_matrix())
    algebraic = mults.get(0, 0)
    if geometric != algebraic:
        raise CheckFailed(f"{_where(space)}: eigenvalue 0 has geometric "
                          f"multiplicity {geometric} (size - rank) but "
                          f"algebraic multiplicity {algebraic}")
    return True


def _poly_eval(coeffs, x):
    out = Fraction(0)
    for c in coeffs:
        out = out * x + c
    return out


def _deflate(coeffs, root):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * root + c)
    return out
