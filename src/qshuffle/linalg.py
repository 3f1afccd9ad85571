"""Exact rational dense linear algebra: elimination, kernels, products,
char polys.

Matrices are lists of rows of Fractions, and every kernel takes and returns
them (rank also takes ints, and int_mat_mul multiplies integer matrices),
but the work is done over the integers: a kernel clears denominators
on the way in (`_cleared`) and builds Fractions only on the way out.  RREF
is Gauss-Jordan on primitive integer rows, rank is forward elimination on
them (no back-substitution, no Fractions), products accumulate integer
rows, and char polys run the division-free Berkowitz algorithm (S. J.
Berkowitz, Inf. Process. Lett. 18 (1984) 147-150).  Pivoting is
deterministic (first nonzero column, then the largest row index among
nonzero entries), so kernel bases and echelon forms are reproducible run to
run.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _cleared(matrix):
    """(d, d * matrix as Python ints), d the lcm of the entry denominators:
    where every kernel here enters the integers.  Only nonzero entries are
    read twice, which keeps sparse matrices cheap."""
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in matrix]
    d = math.lcm(*(x.denominator for row in nonzero for _, x in row))
    out = [[0] * len(row) for row in matrix]
    for dense, row in zip(out, nonzero):
        for j, x in row:
            dense[j] = x.numerator * (d // x.denominator)
    return d, out


def int_mat_mul(a, b):
    """Product of integer matrices: the nonzero entries of each row of a
    are multiplied into an integer accumulator along the sparse rows of b.
    The kernel under mat_mul, for callers that hold integer matrices."""
    cols = len(b[0])
    b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * cols
        for x, bk in zip(row, b):
            if x:
                for j, y in bk:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_mul(a, b):
    """Product of Fraction matrices, computed over Z: each operand is scaled
    by the lcm of its denominators, and each entry x of the integer product
    leaves as Fraction(x, d_a * d_b)."""
    d_a, a = _cleared(a)
    d_b, b = _cleared(b)
    d, zero = d_a * d_b, Fraction(0)
    return [[Fraction(x, d) if x else zero for x in row]
            for row in int_mat_mul(a, b)]


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


def _eliminate(matrix, full):
    """(primitive integer rows, pivot columns) of a fraction-free
    elimination of matrix.  Each row is scaled by the lcm of its
    denominators, and each row update p*row - f*pivot_row is divided by the
    gcd of its entries, so rows stay primitive.  Scaling a row never
    changes which entries are zero, so the pivots are those of the same
    elimination over Q.  full clears the entries above each pivot too
    (Gauss-Jordan); otherwise only those below it (forward elimination)."""
    m = [_cleared([row])[1][0] for row in matrix]
    rows, cols = len(m), len(m[0]) if m else 0
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
        prow = m[r]
        p = prow[c]
        for i in range(0 if full else r + 1, rows):
            if i != r and m[i][c]:
                f = m[i][c]
                g = math.gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(m[i], prow)]
                g = math.gcd(*new)
                m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return m, pivots


def rref(matrix):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Gauss-Jordan over Z (_eliminate); the pivot rows are divided by their
    pivots on the way out."""
    if not matrix:
        return [], []
    m, pivots = _eliminate(matrix, full=True)
    zero, cols = Fraction(0), len(m[0])
    out = [[Fraction(x, row[c]) if x else zero for x in row]
           for row, c in zip(m, pivots)]
    out += [[zero] * cols for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(matrix):
    """The number of pivots of rref(matrix), by forward elimination only:
    the same pivot rule, no back-substitution and no Fraction output.
    Entries may be Fractions or ints."""
    return len(_eliminate(matrix, full=False)[1])


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
    """det(yI - M) as monic Fractions, highest degree first.  Berkowitz over
    Python ints on d*M, d the lcm of the entry denominators: the char poly
    of a leading block [[A, C], [R, a]] is the Toeplitz matrix of (1, -a,
    -RC, -RAC, ...) times that of A; coefficient k is then divided by d^k."""
    d, m = _cleared(matrix)
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
