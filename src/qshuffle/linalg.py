"""Exact rational dense linear algebra: elimination, kernels, the vector
product, char polys, and the dense polynomial arithmetic on char polys.

This is also the one exact integer kernel.  Every rational vector of the
module engine and of the checks at q0 is its reduced integer form (num,
den): den > 0, the entries of num are integers, and gcd(den, *num) = 1.
The form is unique, num = L v with L the lcm of the entry denominators
(for each prime p of L, the entry whose denominator carries p's full power
has a numerator prime to p), so two vectors are equal exactly when their
forms are, and the zero vector is ([0, ..., 0], 1).  Only this module
crosses that boundary (_ints in, _fractions out; _int_rows for sparse
rows), reduces a form (_reduce), scales one by a rational (_scale), takes
a combination of forms (_combine) or reads one from entry ratios (_form),
multiplies an integer vector by sparse integer rows (_times), applies one
factor (p M - r) / s of a product to a form (_step), makes sparse rows
dense (_dense) and brings integer forms to one lcm (_at_lcm).  A vector
becomes Fractions (_fractions) only where it leaves the program: the
eigvectors JSON and simulate's walk.

Elimination takes rows of Fractions or ints and works on the rows'
integer forms: RREF is Gauss-Jordan on primitive integer rows and returns
each reduced row as a form, rank is forward elimination on them, kernel
vectors are forms, and the one vector-matrix product for Fraction callers
(vec_mat) is a row product.  Pivoting is deterministic (first nonzero
column, then the largest row index among nonzero entries), so kernel
bases and echelon forms are reproducible.

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


_ZERO = Fraction(0)  # one shared zero, so comparing outputs skips zeros


def _ints(v):
    """The reduced form (numerators, den) of a rational vector (Fractions or
    ints): den > 0 is the lcm of the entry denominators.  Where a vector
    enters the integers."""
    den = math.lcm(*(x.denominator for x in v if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in v], den


def _fractions(num, den):
    """The Fraction vector num / den.  Where a vector leaves the integers."""
    return [Fraction(x, den) if x else _ZERO for x in num]


def _reduce(num, den):
    """The form num / den, den > 0, divided by gcd(den, *num): reduced."""
    g = math.gcd(den, *num)
    if g > 1:
        return [x // g for x in num], den // g
    return num, den


def _scale(form, c):
    """The reduced form of c times the form, c a Fraction or an int."""
    num, den = form
    a = c.numerator
    return _reduce([a * x for x in num], den * c.denominator)


def _combine(coeffs, forms):
    """The reduced form of sum_i x_i v_i, for the coefficient form coeffs
    = (x numerators, x den) and the forms v_i: each x_i v_i is brought to
    the lcm of the v_i it uses."""
    xs, xden = coeffs
    used = [(x, form) for x, form in zip(xs, forms) if x]
    den = math.lcm(*(d for _, (_, d) in used))
    out = [0] * len(forms[0][0]) if forms else []
    for x, (num, d) in used:
        scale = x * (den // d)
        for j, y in enumerate(num):
            if y:
                out[j] += scale * y
    return _reduce(out, den * xden)


def _form(ratios):
    """The reduced form of the vector of entries a / b over the (a, b)
    pairs of ints, b > 0, none of them a Fraction."""
    den = math.lcm(*(b for a, b in ratios if a))
    return _reduce([a * (den // b) if a else 0 for a, b in ratios], den)


def _int_rows(rows):
    """(d, integer rows of d * rows) for sparse rows of (column, rational)
    pairs, d the lcm of the entry denominators: sparse rows enter the
    integers together."""
    d = math.lcm(*(c.denominator for row in rows for _, c in row))
    return d, [tuple((j, c.numerator * (d // c.denominator)) for j, c in row)
               for row in rows]


def _at_lcm(forms):
    """(nums, L): each num / den of the (num, den) in forms as an integer
    vector over L > 0, the lcm of the den."""
    den = math.lcm(*(d for _, d in forms))
    return [[x * (den // d) for x in num] for num, d in forms], den


def _times(num, rows, dim):
    """The integer vector num times the sparse integer rows, each a sequence
    of (column, integer) pairs, as a dense integer vector of length dim: the
    one row product."""
    out = [0] * dim
    for x, row in zip(num, rows):
        if x:
            for j, c in row:
                out[j] += x * c
    return out


def _step(num, den, rows, p, r, s):
    """(p num M - r num) / (den s) for the integer form num / den and M
    the sparse integer rows, reduced by the gcd of the new den and entries:
    the one row update, which takes each factor of an idempotent and of a
    product of shifts (M - root)."""
    return _reduce([p * x - r * y for x, y in zip(_times(num, rows, len(num)),
                                                  num)], den * s)


def _dense(rows, dim):
    """Each sparse row of (column, integer) pairs as a dense integer list
    of length dim, one row at a time."""
    for row in rows:
        dense = [0] * dim
        for j, x in row:
            dense[j] = x
        yield dense


def vec_mat(v, m):
    """Row vector times matrix, as Fractions.  v, and the nonzero entries
    of the rows of m that it uses, enter the integers once; the row
    product does the rest."""
    num, dv = _ints(v)
    used = [i for i, x in enumerate(num) if x]
    dm, rows = _int_rows([[(j, y) for j, y in enumerate(m[i]) if y]
                          for i in used])
    return _fractions(_times([num[i] for i in used], rows, len(m[0])),
                      dv * dm)


def _eliminate(matrix, full):
    """(primitive integer rows, pivot columns) of a fraction-free
    elimination of matrix.  Each row is scaled by the lcm of its
    denominators, and each row update p*row - f*pivot_row is divided by the
    gcd of its entries, so rows stay primitive.  Scaling a row never
    changes which entries are zero, so the pivots are those of the same
    elimination over Q.  full clears the entries above each pivot too
    (Gauss-Jordan); otherwise only those below it (forward elimination)."""
    m = [_ints(row)[0] for row in matrix]
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
    """Reduced row echelon form; returns (rref rows, pivot column list),
    each row a reduced form.

    Gauss-Jordan over Z (_eliminate); each pivot row over its pivot, the
    sign moved up, is reduced on the way out.  The rows without a pivot
    are zero."""
    if not matrix:
        return [], []
    m, pivots = _eliminate(matrix, full=True)
    out = [_reduce([-x for x in row], -row[c]) if row[c] < 0
           else _reduce(row, row[c]) for row, c in zip(m, pivots)]
    out += [([0] * len(m[0]), 1) for _ in range(len(m) - len(pivots))]
    return out, pivots


def rank(matrix):
    """The number of pivots of rref(matrix), by forward elimination only:
    the same pivot rule, no back-substitution and no form output.
    Entries may be Fractions or ints."""
    return len(_eliminate(matrix, full=False)[1])


def kernel(matrix):
    """Basis of the right kernel {v : M v = 0} as reduced forms,
    deterministic order: for each free column f, v_f = 1 and v_p = -(entry
    f of the rref row of pivot p)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    basis = []
    for f in range(cols):
        if f in pivots:
            continue
        ratios = [(0, 1)] * cols
        ratios[f] = (1, 1)
        for (num, den), p in zip(reduced, pivots):
            ratios[p] = (-num[f], den)
        basis.append(_form(ratios))
    return basis


def left_kernel(matrix):
    """Basis of {v : v M = 0} as reduced forms of row vectors."""
    transposed = [list(col) for col in zip(*matrix)]
    return kernel(transposed)


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
    cleared = [_ints(row) for row in matrix]
    total = math.prod(d for _, d in cleared)
    bounds = [1]  # P e_k(rho): the coefficients of prod_i (d_i + r_i t)
    for row, d in cleared:
        s = sum(x * x for x in row)
        r = math.isqrt(s - 1) + 1 if s else 0
        bounds = [d * x + r * y for x, y in zip(bounds + [0], [0] + bounds)]
    d_all = math.lcm(*(d for _, d in cleared))
    gs = [math.gcd(d_all ** k, total) for k in range(n + 1)]
    need = 2 * max(g * b for g, b in zip(gs, bounds))
    residues, modulus, ladder = [0] * (n + 1), 1, itertools.count()
    while modulus * total <= need:
        p = _proth_prime(next(ladder))
        if total % p == 0:
            continue
        reduced = []
        for row, d in cleared:
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
