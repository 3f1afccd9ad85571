"""Exact rational dense linear algebra: elimination, kernels, products,
char polys, and the dense polynomial arithmetic on char polys.

Matrices are lists of rows of Fractions, and every kernel takes and returns
them (rank and charpoly also take ints, and int_mat_mul multiplies integer
matrices), but the work is done over the integers: a kernel clears
denominators on the way in (`_cleared`) and builds Fractions only on the
way out.  RREF is Gauss-Jordan on primitive integer rows, rank is forward
elimination on them (no back-substitution, no Fractions), and products
accumulate integer rows.  Pivoting is deterministic (first nonzero column,
then the largest row index among nonzero entries), so kernel bases and
echelon forms are reproducible run to run.

Char polys are computed modulo primes and lifted.  Each prime is a Proth
prime k * 2^248 + 1, proven prime by Proth's theorem (F. Proth, C. R. Acad.
Sci. Paris 87 (1878) 926) before it is used.  Modulo each, the matrix is
brought to upper Hessenberg form by similarity and the char poly read from
the Hessenberg recurrence, O(N^3) operations on residues (H. Cohen, A
Course in Computational Algebraic Number Theory, GTM 138, Alg. 2.2.9).  By
Hadamard's inequality on principal minors, each coefficient is bounded by
an elementary symmetric function of the rows' 2-norms, rounded up.  The
residues are joined by the Chinese remainder theorem until the modulus
exceeds twice that bound for every coefficient, so the symmetric residues
are the exact integer coefficients: no step is probabilistic, and there is
no early stop.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul


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
    are multiplied into an integer accumulator along the sparse rows of b."""
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


def vec_mat(v, m):
    """Row vector times matrix, as Fractions.  v and the rows of m that it
    uses are each cleared of denominators once, and the products
    accumulate as ints."""
    used = [i for i, x in enumerate(v) if x]
    dv, (cv,) = _cleared([[v[i] for i in used]])
    dm, rows = _cleared([m[i] for i in used])
    acc = [0] * len(m[0])
    for x, row in zip(cv, rows):
        for j, y in enumerate(row):
            if y:
                acc[j] += x * y
    d = dv * dm
    return [Fraction(x, d) for x in acc]


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


# -- char polys: Hessenberg form modulo proven primes, joined by CRT ----

_PROTH_SHIFT = 248
_ODD_BELOW_1000 = math.prod(range(3, 1000, 2))
_PROTH_PRIMES = []  # the ladder found so far; each entry is a proven prime


def _is_proth_prime(n):
    """Whether n = k * 2^248 + 1 (k odd, k < 2^248) is prime, decided by
    Proth's theorem: n is prime iff a^((n-1)/2) = -1 (mod n) for some a.
    One gcd rejects n with an odd factor below 1000; then a = 3, 4, ...
    runs until a witness (n prime) or a power other than +-1 (n composite,
    by Euler's criterion)."""
    if math.gcd(n, _ODD_BELOW_1000) != 1:
        return False
    for a in itertools.count(3):
        power = pow(a, n >> 1, n)
        if power == n - 1:
            return True
        if power != 1:
            return False


def _proth_prime(i):
    """The i-th prime (from 0) of the form k * 2^248 + 1 with k odd, in
    increasing k; the ladder is found once per process and kept."""
    while len(_PROTH_PRIMES) <= i:
        k = (_PROTH_PRIMES[-1] >> _PROTH_SHIFT) + 2 if _PROTH_PRIMES else 1
        while not _is_proth_prime((k << _PROTH_SHIFT) + 1):
            k += 2
        _PROTH_PRIMES.append((k << _PROTH_SHIFT) + 1)
    return _PROTH_PRIMES[i]


def _charpoly_mod(a, p):
    """det(yI - a) over GF(p), highest degree first, for a square list of
    integer rows a, which it overwrites.  a is brought to upper Hessenberg
    form by similarity (H. Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.2.9): for each column j, the row operations
    R_i -= u_i R_{j+1} clear the entries below the subdiagonal and the
    column operation C_{j+1} += sum_i u_i C_i undoes them on the right.
    Rows below the pivot row are reduced mod p only when they become the
    pivot row, so between reductions their entries are sums of at most n
    products of residues.  The char poly then follows from the recurrence
    p_m = (y - h_mm) p_{m-1} - sum_{i<m} h_im h_{i+1,i} ... h_{m,m-1} p_{i-1},
    which stops early where a subdiagonal entry is 0."""
    n = len(a)
    for j in range(n - 2):
        k = j + 1
        pivot = next((i for i in range(k, n) if a[i][j] % p), None)
        if pivot is None:
            continue
        if pivot != k:
            a[pivot], a[k] = a[k], a[pivot]
            for row in a:
                row[pivot], row[k] = row[k], row[pivot]
        prow = a[k]
        prow[j:] = [x % p for x in prow[j:]]
        inv, tail = pow(prow[j], -1, p), prow[k:]
        cols, us = [], []
        for i in range(k + 1, n):
            row = a[i]
            u = row[j] * inv % p
            if u:
                cols.append(i)
                us.append(u)
                row[k:] = [x - u * y for x, y in zip(row[k:], tail)]
            row[j] = 0
        if us:
            for row in a:
                row[k] = (row[k] + sum(map(mul, us, map(row.__getitem__,
                                                           cols)))) % p
    a = [[x % p for x in row] for row in a]
    polys = [[1]]  # p_0, p_1, ..., lowest degree first
    for m in range(n):
        prev = polys[-1]
        new = [0] + prev
        for d, c in enumerate(prev):
            new[d] -= a[m][m] * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * a[i + 1][i] % p
            if not t:
                break
            c = a[i][m] * t % p
            if c:
                for d, x in enumerate(polys[i]):
                    new[d] -= c * x
        polys.append([x % p for x in new])
    return polys[-1][::-1]


def charpoly(matrix):
    """det(yI - M) as monic Fractions, highest degree first; the entries of
    M may be Fractions or ints.

    Row i of M is d_i times an integer row M'_i (d_i the lcm of its
    denominators); d is the lcm and P the product of the d_i.  Coefficient
    c_k is a signed sum of k x k principal minors, each with a denominator
    dividing both d^k and P, so g_k c_k is an integer for g_k = gcd(d^k, P).
    By Hadamard's inequality each minor is at most the product of its rows'
    2-norms, so |c_k| <= e_k(rho), rho_i = ceil(|M'_i|) / d_i >= |M_i|.
    For each prime p of the Proth ladder that divides no d_i, M mod p goes
    to _charpoly_mod, and the residues of g_k c_k are joined by the Chinese
    remainder theorem until the modulus exceeds 2 max_k g_k e_k(rho); then
    the symmetric residue of each g_k c_k is that integer, with no
    probabilistic step."""
    n = len(matrix)
    cleared = [_cleared([row]) for row in matrix]
    dens = [d for d, _ in cleared]
    rows = [m[0] for _, m in cleared]
    total = math.prod(dens)
    bounds = [1]  # P e_k(rho): the coefficients of prod_i (d_i + r_i t)
    for d, row in zip(dens, rows):
        s = sum(x * x for x in row)
        r = math.isqrt(s - 1) + 1 if s else 0
        bounds = [d * x + r * y for x, y in zip(bounds + [0], [0] + bounds)]
    d_all = math.lcm(*dens)
    gs = [math.gcd(d_all ** k, total) for k in range(n + 1)]
    need = 2 * max(g * b for g, b in zip(gs, bounds))
    residues, modulus, ladder = [0] * (n + 1), 1, itertools.count()
    while modulus * total <= need:
        p = _proth_prime(next(ladder))
        if total % p == 0:
            continue
        reduced = []
        for d, row in zip(dens, rows):
            inv = pow(d, -1, p)
            reduced.append([x * inv % p for x in row])
        coeffs = _charpoly_mod(reduced, p)
        inv = pow(modulus, -1, p)
        residues = [x + modulus * ((c * g - x) * inv % p)
                    for x, c, g in zip(residues, coeffs, gs)]
        modulus *= p
    return [Fraction(x - modulus if 2 * x > modulus else x, g)
            for x, g in zip(residues, gs)]


# -- dense polynomials, coefficients highest degree first ----------------

def poly_mul(a, b):
    """The product a b; int coefficients give int coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a, b):
    """(quotient, remainder) of a by the monic b, by synthetic division:
    a = quotient b + remainder, the remainder of min(len(a), len(b) - 1)
    coefficients."""
    a, cut = list(a), max(len(a) - len(b) + 1, 0)
    for i in range(cut):
        for j in range(1, len(b)):
            a[i + j] -= a[i] * b[j]
    return a[:cut], a[cut:]


def poly_from_roots(root_mult_pairs):
    """Monic polynomial prod (y - r)^m as Fractions.  With r = a/b, the
    integer polynomial prod (b y - a)^m, each factor expanded by the
    binomial theorem, is divided by its leading coefficient prod b^m at the
    end."""
    coeffs, lead = [1], 1
    for root, mult in root_mult_pairs:
        root = Fraction(root)
        a, b = root.numerator, root.denominator
        coeffs = poly_mul(coeffs, [math.comb(mult, k) * (-a) ** k
                                   * b ** (mult - k) for k in range(mult + 1)])
        lead *= b ** mult
    return [Fraction(c, lead) for c in coeffs]
