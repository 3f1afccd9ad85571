"""Exact rational dense linear algebra: elimination, kernels, char polys.

Matrices are lists of rows of Fractions.  Pivoting is deterministic
(first nonzero column, then the largest row index among nonzero entries),
so kernel bases and echelon forms are reproducible run to run.
"""

from __future__ import annotations

from fractions import Fraction

import sympy


def zeros(rows, cols):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(size):
    out = zeros(size, size)
    for i in range(size):
        out[i][i] = Fraction(1)
    return out


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
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


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[x * c for x in row] for row in a]


def vec_mat(v, m):
    """Row vector times matrix."""
    cols = len(m[0])
    out = [Fraction(0)] * cols
    for i, vi in enumerate(v):
        if vi:
            row = m[i]
            for j in range(cols):
                if row[j]:
                    out[j] += vi * row[j]
    return out


def rref(matrix):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
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


def rank(matrix):
    _, pivots = rref(matrix)
    return len(pivots)


def kernel(matrix):
    """Basis of the right kernel {v : M v = 0}, deterministic order."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def left_kernel(matrix):
    """Basis of {v : v M = 0} as row vectors."""
    transposed = [list(col) for col in zip(*matrix)]
    return kernel(transposed)


def solve_in_span(rows, target):
    """Coefficients x with sum x_i rows[i] = target, or None if unsolvable."""
    if not rows:
        return None if any(target) else []
    aug = [list(col) + [t] for col, t in zip(zip(*rows), target)]
    reduced, pivots = rref(aug)
    ncoef = len(rows)
    if ncoef in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [Fraction(0)] * ncoef
    for r, p in enumerate(pivots):
        x[p] = reduced[r][ncoef]
    return x


def charpoly(matrix):
    """Characteristic polynomial det(yI - M) as a list of Fractions.

    Coefficients are returned highest degree first (monic).  Uses the
    division-free Berkowitz algorithm via sympy for exactness.
    """
    size = len(matrix)
    if size == 0:
        return [Fraction(1)]
    m = sympy.Matrix(size, size,
                     [sympy.Rational(x.numerator, x.denominator)
                      for row in matrix for x in row])
    poly = m.charpoly()
    return [Fraction(int(c.p), int(c.q)) for c in poly.all_coeffs()]


def poly_from_roots(root_mult_pairs):
    """Monic polynomial prod (y - r)^m, coefficients highest degree first."""
    coeffs = [Fraction(1)]
    for root, mult in root_mult_pairs:
        root = Fraction(root)
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i] += c
                nxt[i + 1] -= c * root
            coeffs = nxt
    return coeffs
