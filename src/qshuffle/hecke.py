"""The Iwahori-Hecke algebra H_n(q) over Z[q, q^-1].

Elements are finite sums sum_w c_w(q) T_w over the permutation basis, each
c_w a LaurentPoly with integer coefficients.
Right multiplication by a generator follows
    T_w T_{s_i} = T_{w s_i}                       if l(w s_i) > l(w)
    T_w T_{s_i} = q T_{w s_i} + (q - 1) T_w       otherwise,
and general products iterate this along reduced words.  Identity checks on
these symbolic elements certify statements for all q at once.

At a rational point q0 every module of H_n(q0) used here (seminormal's
word modules, among them the regular representation W^(1^n), its Specht
modules in Young's seminormal form, and flags) is a HeckeModule with one
action path: each generator and element is built once per module into
sparse integer rows with one denominator, and every action is one row
product over the integers.  A vector is its reduced integer form (num,
den), den > 0 and gcd(den, *num) = 1, which is unique (linalg), so the
checks compare forms with ==; that form, the row product and the
reduction are linalg's.  _require_equal and _require_zero word the
witness of every vector and matrix comparison, and cross-multiply only on
a failure.

Every build shared across one verify run (the shuffle elements, the
Jucys-Murphy elements, scaled and not, the value of each Laurent
coefficient at each q0, and in others the spectrum tables, the eigenvalue
formulas, the word, Specht and seminormal modules, the kernel bases, the
eigenbases, the regular trace forms and the spectrum witnesses) is a memo
function; clear_module_cache forgets them all.  Pure partition and tableau
combinatorics outside the traced layers (tableaux, verify._sub_partitions)
is kept instead with functools.lru_cache for the life of the process.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import _at_lcm, _dense, _int_rows, _reduce, _step, _times
from .qpoly import LaurentPoly, ONE, Q, qint
from .symmetric import Permutation, min_coset_reps, young_subgroup


class SizeMismatch(ValueError):
    pass


class CheckFailed(AssertionError):
    """A checked property failed; the message says where."""


class HeckeElement:
    """Formal sum of T_w with LaurentPoly coefficients, all w in S_n."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n, terms=None):
        self.n = n
        self._hash = None
        self.terms = {w: c for w, c in (terms or {}).items()
                      if not c.is_zero()}
        if any(w.n != n for w in self.terms):
            raise SizeMismatch("permutation size != n")

    @staticmethod
    def zero(n):
        return HeckeElement(n)

    @staticmethod
    def one(n):
        return HeckeElement(n, {Permutation.identity(n): ONE})

    @staticmethod
    def t_word(word, n):
        """T_{s_{i1}} T_{s_{i2}} ... (a single T_w when the word is reduced)."""
        return HeckeElement.one(n).mul_word(word)

    @staticmethod
    def t_perm(w):
        return HeckeElement(w.n, {w: ONE})

    def __add__(self, other):
        if self.n != other.n:
            raise SizeMismatch("different n")
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return HeckeElement(self.n, out)

    def __neg__(self):
        return HeckeElement(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        """poly times self, for a LaurentPoly or an int poly."""
        if not isinstance(poly, LaurentPoly):
            poly = LaurentPoly.const(poly)  # which refuses all but an int
        if poly.is_zero():
            return HeckeElement.zero(self.n)
        return HeckeElement(self.n,
                            {w: c * poly for w, c in self.terms.items()})

    def mul_gen(self, i):
        """Right multiplication by T_{s_i}."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator {i} out of range")
        out = {}

        def add(w, c):
            s = out.get(w)
            out[w] = c if s is None else s + c

        for w, c in self.terms.items():
            wsi = w.apply_gen_right(i)
            if w.one_line[i - 1] < w.one_line[i]:  # length goes up
                add(wsi, c)
            else:  # c q and c (q - 1), by shifting
                qc = c.shift(1)
                add(wsi, qc)
                add(w, qc - c)
        return HeckeElement(self.n, out)  # which drops the zero sums

    def mul_word(self, word):
        out = self
        for i in word:
            out = out.mul_gen(i)
        return out

    def __mul__(self, other):
        if not isinstance(other, HeckeElement):
            return self.scale(other)
        if self.n != other.n:
            raise SizeMismatch("different n")
        out = {}
        for w, c in other.terms.items():
            for v, d in self.mul_word(w.reduced_word()).terms.items():
                s = out.get(v)
                out[v] = d * c if s is None else s + d * c
        return HeckeElement(self.n, out)

    __rmul__ = scale

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c})*T{w}" for w, c in
                sorted(self.terms.items(), key=lambda kv: kv[0].lehmer_rank())]
        return " + ".join(bits)

    def to_json(self):
        ws = sorted(self.terms, key=Permutation.lehmer_rank)
        return {"n": self.n,
                "terms": [{"perm": list(w.one_line),
                           "coeff": self.terms[w].to_json()} for w in ws]}


# Every identity that verify certifies fails through _require_same,
# _require_equal or _require_zero, which word the witness in one place; the
# caller's wording may be a zero-argument callable, called only on failure.

def _worded(what):
    return what() if callable(what) else what


def _require_same(got, want, relation):
    """True if the HeckeElements got and want are equal; else CheckFailed
    naming the relation, n, the first w (in Lehmer order) whose T_w
    coefficients differ, and both coefficients."""
    if got == want:
        return True
    zero = LaurentPoly.zero()
    w = min((w for w in got.terms.keys() | want.terms.keys()
             if got.terms.get(w, zero) != want.terms.get(w, zero)),
            key=Permutation.lehmer_rank)
    raise CheckFailed(
        f"{_worded(relation)} fails in H_{got.n}: the coefficient of T_w for "
        f"w = {w} is {got.terms.get(w, zero)} on the left, "
        f"{want.terms.get(w, zero)} on the right")


def _first_index(a, b):
    """First index at which the vectors a and b differ."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def _first_cell(a, b):
    """First (row, col) at which the matrices a and b differ."""
    return next(((i, j) for i, (ra, rb) in enumerate(zip(a, b))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)


def _require_equal(got, want, what):
    """Raise CheckFailed saying what failed and the first index (vectors) or
    (row, col) (matrices) at which got and want differ, unless equal.  Each
    is an integer form (num, den), num a vector or a matrix (a list of
    rows) over den > 0; both reduced, or both over one den, they are equal
    exactly when their values are, so a pass is one ==.  Only a failure
    cross-multiplies, num_got den_want against num_want den_got, to name
    the first entry whose values differ."""
    if got != want:
        (a, da), (b, db) = got, want
        if a and isinstance(a[0], list):
            where = "(row, col) " + str(_first_cell(
                [[x * db for x in row] for row in a],
                [[y * da for y in row] for row in b]))
        else:
            where = "index " + str(_first_index([x * db for x in a],
                                                [y * da for y in b]))
        raise CheckFailed(f"{_worded(what)}, first difference at {where}")


def _require_same_rows(module, got, want, what):
    """_require_equal for two built (d, rows) of module.  Each is reduced
    by its gcd, so they are one matrix exactly when their d agree and each
    row holds the same (column, integer) pairs, in any order; a failure is
    worded by _require_equal on the rows made dense."""
    if got[0] != want[0] or any(dict(a) != dict(b)
                                for a, b in zip(got[1], want[1])):
        _require_equal(*((list(_dense(rows, module.dim)), d)
                         for d, rows in (got, want)), what)


def _require_zero(v, what):
    """Raise CheckFailed saying what failed and the first nonzero index of
    the vector of the integer form v, unless v is zero."""
    j = next((j for j, x in enumerate(v[0]) if x), None)
    if j is not None:
        raise CheckFailed(f"{_worded(what)}, first nonzero index {j}")


# -- shared builds ----------------------------------------------------

_TABLES = {}  # "module.function" -> the table of a memo function
_UNBUILT = object()  # a memo table lookup's answer for a tuple not built


def memo(fn):
    """fn built once per argument tuple, until clear_module_cache.  Callers
    share each result and must not change it.  The wrapper is a plain
    function (not functools.lru_cache), so perfbench's tracer, which wraps
    plain functions only, still counts every call."""
    table = _TABLES[f"{fn.__module__}.{fn.__qualname__}"] = {}

    @functools.wraps(fn)
    def shared(*args):
        built = table.get(args, _UNBUILT)  # one hash of args per call
        if built is _UNBUILT:
            built = table[args] = fn(*args)
        return built

    return shared


def clear_module_cache():
    """Forget every shared build: each memo table (and _PAIRS) is emptied."""
    for table in _TABLES.values():
        table.clear()


@memo
def _value_at(poly, q0):
    """The Fraction poly(q0) of a LaurentPoly, evaluated once per (poly,
    q0) for every module and check at q0."""
    return poly.eval(q0)


# -- shuffle operators ------------------------------------------------


def b2r(n):
    """B_n(q) = sum_{i=1}^n T_{s_{n-1}} T_{s_{n-2}} ... T_{s_i}."""
    return b2r_embedded(n, n)


def r2b(n):
    """B*_n(q) = sum_{j=1}^n T_{s_j} T_{s_{j+1}} ... T_{s_{n-1}}."""
    return r2b_embedded(n, n)


@memo
def r2r(n):
    """R_n(q) = B*_n(q) B_n(q), the q-random-to-random element."""
    return r2b(n) * b2r(n)


def top_ops(n):
    """(T_n(q), T*_n(q)): q-top-to-random and q-random-to-top."""
    t = HeckeElement.zero(n)
    tstar = HeckeElement.zero(n)
    for i in range(1, n + 1):
        t = t + HeckeElement.t_word(range(1, i), n)
        tstar = tstar + HeckeElement.t_word(range(i - 1, 0, -1), n)
    return t, tstar


def transposition_word(i, k):
    """Reduced word for the transposition (i, k), i < k."""
    return tuple(range(i, k)) + tuple(range(k - 2, i - 1, -1))


@memo
def jucys_murphy_scaled(n, k):
    """q^k J_k(q) = sum_{i<k} q^i T_{(i,k)} (polynomial form), shared:
    callers must not change it."""
    total = HeckeElement.zero(n)
    for i in range(1, k):
        total = total + HeckeElement.t_word(transposition_word(i, k), n).scale(
            LaurentPoly.q_power(i))
    return total


@memo
def _jucys_murphy(n, k):
    """J_k(q) = q^-k (q^k J_k(q)), shared: callers must not change it."""
    return jucys_murphy_scaled(n, k).scale(LaurentPoly.q_power(-k))


# -- coset sums -------------------------------------------------------

def m_alpha(alpha):
    """m_alpha = sum of T_w over the Young subgroup S_alpha."""
    total = HeckeElement.zero(alpha.n)
    for w in young_subgroup(alpha):
        total = total + HeckeElement.t_perm(w)
    return total


def x_alpha(alpha):
    """x_alpha = sum of T_w over the minimal coset representatives X_alpha."""
    total = HeckeElement.zero(alpha.n)
    for w in min_coset_reps(alpha):
        total = total + HeckeElement.t_perm(w)
    return total


@memo
def b2r_embedded(k, n):
    """B_k(q) inside H_n(q) (generators with index < k)."""
    total = HeckeElement.zero(n)
    for i in range(1, k + 1):
        total = total + HeckeElement.t_word(range(k - 1, i - 1, -1), n)
    return total


@memo
def r2b_embedded(k, n):
    """B*_k(q) inside H_n(q)."""
    total = HeckeElement.zero(n)
    for j in range(1, k + 1):
        total = total + HeckeElement.t_word(range(j, k), n)
    return total


def c_op(j, n):
    """C_j^(n) = B_{j+1}(q) B_{j+2}(q) ... B_n(q) (identity when j = n)."""
    total = HeckeElement.one(n)
    for k in range(j + 1, n + 1):
        total = total * b2r_embedded(k, n)
    return total


# -- modules at a rational point --------------------------------------

# One shared (column, integer) tuple per pair the built rows hold, which
# repeat few distinct pairs; emptied with the memo tables.
_PAIRS = _TABLES["qshuffle.hecke._PAIRS"] = {}


class HeckeModule:
    """A right H_n(q0)-module at a rational q0, given by generator rows.

    gen_rows[i][r] lists the (column, coefficient) pairs of e_r . T_{s_i};
    row r of a matrix is the image of the basis vector e_r.  Whatever acts
    is built into (d, rows), the sparse integer rows of d times its matrix
    at q0 reduced by their gcd, d > 0: the generators at construction, each
    HeckeElement once (in _elements, keyed by equality), a literal word on
    each word_rows call.  A vector is a reduced form (num, den), and an
    action is linalg's row product, reduced; a matrix is the same rows made
    dense by linalg._dense.
    """

    def __init__(self, n, q0, dim, gen_rows):
        self.n = n
        self.q0 = Fraction(q0)
        self.dim = dim
        self._gens = {i: _int_rows(rows) for i, rows in gen_rows.items()}
        self._elements = {}  # HeckeElement -> its built (d, rows) at q0

    def _act(self, v, built):
        """The reduced form of the form v times the built (d, rows)."""
        d, rows = built
        num, den = v
        return _reduce(_times(num, rows, self.dim), den * d)

    def _terms_at(self, elem):
        """[(reduced word of w, c_w(q0))] for a HeckeElement of the same n."""
        if elem.n != self.n:
            raise SizeMismatch("HeckeElement size != module n")
        return [(w.reduced_word(), _value_at(c, self.q0))
                for w, c in elem.terms.items()]

    def _rows_of(self, terms):
        """The built (d, rows) of sum_w c_w T_word over the (word, c_w)
        terms: each c_w over the product of the word's generator dens is
        brought to an integer f_w over their lcm, and each unit image is
        followed through the word as a sparse {column: integer} map."""
        fs, lcm = _at_lcm([([c.numerator], c.denominator * math.prod(
            self._gens[i][0] for i in word)) for word, c in terms])
        terms = [(word, f) for (word, _), (f,) in zip(terms, fs)]
        totals, g = [], lcm
        for r in range(self.dim):
            total = {}
            for word, f in terms:
                img = {r: f}
                for i in word:
                    gen, out = self._gens[i][1], {}
                    for k, x in img.items():
                        for j, c in gen[k]:
                            out[j] = out.get(j, 0) + x * c
                    img = out
                for j, x in img.items():
                    total[j] = total.get(j, 0) + x
            totals.append(total)
            if g > 1:
                g = math.gcd(g, *total.values())
        if g > 1:
            for total in totals:
                for j in total:
                    total[j] //= g
        share = _PAIRS.setdefault
        return lcm // g, [tuple([share(p, p) for p in total.items() if p[1]])
                          for total in totals]

    def _built(self, elem):
        """The (d, rows) of a HeckeElement at q0, built on first use."""
        built = self._elements.get(elem)
        if built is None:
            built = self._elements[elem] = self._rows_of(self._terms_at(elem))
        return built

    def apply_gen(self, v, i):
        """v . T_{s_i} for the form v."""
        return self._act(v, self._gens[i])

    def apply_hecke(self, v, elem):
        """v . a for the form v and a HeckeElement a."""
        return self._act(v, self._built(elem))

    def apply_shifted_product(self, v, elem, roots):
        """v . prod over the rational roots r, in order, of (elem - r), for
        the form v: one linalg._step per root on elem's built (d, rows),
        which with r = a/b maps num / den to (b num rows - a d num) /
        (den d b)."""
        d, rows = self._built(elem)
        num, den = v
        for root in roots:
            a, b = root.numerator, root.denominator
            num, den = _step(num, den, rows, b, a * d, d * b)
        return num, den

    def word_rows(self, word):
        """The (d, rows) of T_{s_i1} T_{s_i2} ..., built generator by
        generator and reduced by their gcd like every element's."""
        return self._rows_of([(tuple(word), 1)])

    def _hecke_rows(self, elem):
        """(integer row, d) of e_r . elem for each basis vector e_r in
        turn: elem's built rows made dense, one denominator for all."""
        d, rows = self._built(elem)
        return ((row, d) for row in _dense(rows, self.dim))


# -- identity checks --------------------------------------------------

def recursion_check(n):
    """B_n R_n = (q R_{n-1} + [n]_q + q^n J_n) B_n, symbolically; a failure
    raises CheckFailed with the first differing coefficient."""
    bn = b2r(n)
    lhs = bn * r2r(n)
    inner = (r2b_embedded(n - 1, n) * b2r_embedded(n - 1, n)).scale(Q)
    inner = inner + HeckeElement.one(n).scale(qint(n))
    inner = inner + jucys_murphy_scaled(n, n)
    rhs = inner * bn
    return _require_same(lhs, rhs,
                         "B_n R_n = (q R_{n-1} + [n]_q + q^n J_n) B_n")


def intermediate_recursion_check(n):
    """B_n B*_n = B*_{n-1} T_{s_{n-1}} B_{n-1} + [n]_q + q^n J_n; a failure
    raises CheckFailed with the first differing coefficient."""
    lhs = b2r(n) * r2b(n)
    rhs = (r2b_embedded(n - 1, n).mul_gen(n - 1) * b2r_embedded(n - 1, n)
           + HeckeElement.one(n).scale(qint(n))
           + jucys_murphy_scaled(n, n))
    return _require_same(
        lhs, rhs, "B_n B*_n = B*_{n-1} T_{n-1} B_{n-1} + [n]_q + q^n J_n")


def annihilator_check(a, n, name="a"):
    """prod over j in [0,n], j != 1, of (a - [n-j]_q) equals 0; a failure
    raises CheckFailed naming a by name, with the first nonzero
    coefficient."""
    prod = HeckeElement.one(n)
    for j in range(0, n + 1):
        if j == 1:
            continue
        prod = prod * (a - HeckeElement.one(n).scale(qint(n - j)))
    return _require_same(prod, HeckeElement.zero(n),
                         lambda: f"prod_(j != 1) ({name} - [n-j]_q) = 0")
