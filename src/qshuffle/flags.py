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
from .hecke import HeckeModule, top_ops


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
    H_n(p)-module."""

    def __init__(self, n, p):
        if p not in (2, 3) or n > 4 or n < 1:
            raise UnsupportedSize("supported range: n <= 4, p in {2, 3}")
        self.n = n
        self.p = p
        unit = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
        flags = [()]
        for dim in range(1, n + 1):
            grown = set()
            for chain in flags:
                current = chain[-1] if chain else ()
                inside = subspace_vectors(current, p) if current else {tuple([0] * n)}
                for v in itertools.product(range(p), repeat=n):
                    if v in inside:
                        continue
                    bigger = span(list(current) + [v], p)
                    grown.add(chain + (bigger,))
            flags = sorted(grown)
        self.flags = flags
        self.index = {f: i for i, f in enumerate(flags)}
        self.size = len(flags)
        assert all(len(f[i]) == i + 1 for f in flags for i in range(n))
        super().__init__(n, p, self.size,
                         {i: self._gen_rows(i) for i in range(1, n)})

    def _gen_rows(self, i):
        """Sparse rows of T_{s_i}: swap out F_i for the other subspaces."""
        p, n = self.p, self.n
        rows = []
        for flag in self.flags:
            lower = flag[i - 2] if i >= 2 else ()
            upper = flag[i]
            inside_lower = (subspace_vectors(lower, p) if lower
                            else {tuple([0] * n)})
            seen = set()
            row = []
            for v in subspace_vectors(upper, p):
                if v in inside_lower:
                    continue
                mid = span(list(lower) + [v], p)
                if mid == flag[i - 1] or mid in seen:
                    continue
                seen.add(mid)
                new_flag = flag[:i - 1] + (mid,) + flag[i:]
                row.append((self.index[new_flag], Fraction(1)))
            rows.append(row)
        return rows

    def x_matrix(self):
        """Integer matrix of the line-insertion operator."""
        p, n = self.p, self.n
        mat = [[0] * self.size for _ in range(self.size)]
        zero = {tuple([0] * n)}
        for idx, flag in enumerate(self.flags):
            for i in range(1, n + 1):
                below = subspace_vectors(flag[i - 2], p) if i >= 2 else zero
                seen = set()
                for v in subspace_vectors(flag[i - 1], p):
                    if v in below:
                        continue
                    line = span([v], p)
                    if line in seen:
                        continue
                    seen.add(line)
                    if i == 1:
                        chain = []  # the line is F_1 itself
                    else:
                        chain = [line]
                        for j in range(i - 2):
                            chain.append(span(list(line) + list(flag[j]), p))
                    new_flag = tuple(chain) + flag[i - 1:]
                    mat[idx][self.index[new_flag]] += 1
        return mat

    def _terms_at(self, elem):
        """The flag action needs integer coefficients at q = p."""
        terms = super()._terms_at(elem)
        if any(c.denominator != 1 for _word, c in terms):
            raise ValueError("flag action needs integer coefficients")
        return terms


def q_int_at(m, p):
    return sum(p ** k for k in range(m))


def flag_count(n, p):
    """[n]!_p = prod_k [k]_p."""
    out = 1
    for k in range(1, n + 1):
        out *= q_int_at(k, p)
    return out


def verify_commutation(space):
    """Line insertion equals right action by the q-random-to-top element."""
    _, tstar = top_ops(space.n)
    return space.x_matrix() == space.hecke_matrix(tstar)


def x_spectrum(space):
    """Eigenvalue multiplicities of x, or None if the char poly does not
    split over the allowed values {[n-j]_p : j in [0,n], j != 1}."""
    n, p = space.n, space.p
    mat = [[Fraction(x) for x in row] for row in space.x_matrix()]
    coeffs = linalg.charpoly(mat)
    allowed = [q_int_at(n - j, p) for j in range(n + 1) if j != 1]
    mults = {}
    for root in allowed:
        while len(coeffs) > 1 and _poly_eval(coeffs, root) == 0:
            coeffs = _deflate(coeffs, root)
            mults[root] = mults.get(root, 0) + 1
    if len(coeffs) != 1 or coeffs[0] != 1:
        return None
    return mults


def x_spectrum_check(space):
    """Char poly of x splits over {[n-j]_p : j in [0,n], j != 1} with
    [n-1]_p absent, and the 0-eigenspace has matching dimension."""
    n, p = space.n, space.p
    mults = x_spectrum(space)
    if mults is None:
        return False
    forbidden = q_int_at(n - 1, p)
    if any(root == forbidden for root in mults):
        return False
    mat = [[Fraction(x) for x in row] for row in space.x_matrix()]
    zero_mult = mults.get(0, 0)
    return zero_mult == space.size - linalg.rank(mat)


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
