"""The Iwahori-Hecke algebra H_n(q) with symbolic Laurent coefficients.

Elements are finite sums sum_w c_w(q) T_w over the permutation basis.
Right multiplication by a generator follows
    T_w T_{s_i} = T_{w s_i}                       if l(w s_i) > l(w)
    T_w T_{s_i} = q T_{w s_i} + (q - 1) T_w       otherwise,
and general products iterate this along reduced words.  Identity checks on
these symbolic elements certify statements for all q at once.

At a rational point q0 every module of H_n(q0) used here (word modules,
the regular representation, flags) is a HeckeModule: sparse integer rows
of the generators, each with one denominator, from which every action and
matrix is built over the integers; Fractions appear only at its boundary.

Every build shared across one verify run (the shuffle elements, the
regular modules, and in other modules the word and Specht modules and the
kernel bases) is a memo function; clear_module_cache forgets them all.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .qpoly import LaurentPoly, ONE, Q, QM1, qint
from .symmetric import Permutation, all_permutations, min_coset_reps, young_subgroup


class SizeMismatch(ValueError):
    pass


class CheckFailed(AssertionError):
    """A checked property failed; the message says where."""


class HeckeElement:
    """Formal sum of T_w with LaurentPoly coefficients, all w in S_n."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        clean = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    if w.n != n:
                        raise SizeMismatch("permutation size != n")
                    clean[w] = c
        self.terms = clean

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
            s = out.get(w, LaurentPoly.zero()) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        res = HeckeElement(self.n)
        res.terms = out
        return res

    def __neg__(self):
        res = HeckeElement(self.n)
        res.terms = {w: -c for w, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly):
        if not isinstance(poly, LaurentPoly):
            poly = LaurentPoly.const(poly)
        if poly.is_zero():
            return HeckeElement.zero(self.n)
        res = HeckeElement(self.n)
        res.terms = {w: c * poly for w, c in self.terms.items()}
        return res

    def mul_gen(self, i):
        """Right multiplication by T_{s_i}."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator {i} out of range")
        out = {}

        def add(w, c):
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s

        for w, c in self.terms.items():
            wsi = w.apply_gen_right(i)
            if w.one_line[i - 1] < w.one_line[i]:  # length goes up
                add(wsi, c)
            else:
                add(wsi, c * Q)
                add(w, c * QM1)
        res = HeckeElement(self.n)
        res.terms = out
        return res

    def mul_word(self, word):
        out = self
        for i in word:
            out = out.mul_gen(i)
        return out

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        if self.n != other.n:
            raise SizeMismatch("different n")
        total = HeckeElement.zero(self.n)
        for w, c in other.terms.items():
            total = total + self.mul_word(w.reduced_word()).scale(c)
        return total

    def __rmul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

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


# -- shared builds ----------------------------------------------------

_TABLES = {}  # "module.function" -> the table of a memo function


def memo(fn):
    """fn built once per argument tuple, until clear_module_cache.  Callers
    share each result and must not change it.  The wrapper is a plain
    function (not functools.lru_cache), so perfbench's tracer, which wraps
    plain functions only, still counts every call."""
    table = _TABLES[f"{fn.__module__}.{fn.__qualname__}"] = {}

    @functools.wraps(fn)
    def shared(*args):
        if args not in table:
            table[args] = fn(*args)
        return table[args]

    return shared


def clear_module_cache():
    """Forget every shared build: each memo table is emptied."""
    for table in _TABLES.values():
        table.clear()


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


def jucys_murphy_scaled(n, k):
    """q^k J_k(q) = sum_{i<k} q^i T_{(i,k)} (polynomial form)."""
    total = HeckeElement.zero(n)
    for i in range(1, k):
        total = total + HeckeElement.t_word(transposition_word(i, k), n).scale(
            LaurentPoly.q_power(i))
    return total


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

def word_gen_rows(words, q0):
    """Sparse rows of each T_{s_i} on the span of words at q = q0:
        w . T_{s_i} = q w                      if w_i = w_{i+1}
        w . T_{s_i} = w s_i                    if w_i < w_{i+1}
        w . T_{s_i} = q (w s_i) + (q-1) w      if w_i > w_{i+1}.
    The words are tuples of one length, closed under swapping neighbours.
    """
    q0 = Fraction(q0)
    index = {w: k for k, w in enumerate(words)}
    gen_rows = {}
    for i in range(1, len(words[0])):
        rows = []
        for k, w in enumerate(words):
            a, b = w[i - 1], w[i]
            if a == b:
                rows.append([(k, q0)])
                continue
            j = index[w[:i - 1] + (b, a) + w[i + 1:]]
            rows.append([(j, Fraction(1))] if a < b
                        else [(j, q0), (k, q0 - 1)])
        gen_rows[i] = rows
    return gen_rows


def _ints(v):
    """(numerators, den) of a rational vector: den > 0 is the lcm of the
    entry denominators.  Where a vector enters the integer engine."""
    den = math.lcm(*(x.denominator for x in v if x))
    return [x.numerator * (den // x.denominator) if x else 0 for x in v], den


_ZERO = Fraction(0)  # one shared zero, so comparing outputs skips zeros


def _fractions(num, den):
    """The Fraction vector num / den.  Where a vector leaves the engine."""
    return [Fraction(x, den) if x else _ZERO for x in num]


def _cleared_rows(rows):
    """(d, integer rows of d * rows) for sparse rows of rationals, d the lcm
    of the entry denominators."""
    d = math.lcm(*(c.denominator for row in rows for _, c in row))
    return d, [[(j, c.numerator * (d // c.denominator)) for j, c in row]
               for row in rows]


class HeckeModule:
    """A right H_n(q0)-module at a rational q0, given by generator rows.

    gen_rows[i][r] lists the (column, coefficient) pairs of e_r . T_{s_i};
    row r of a matrix is the image of the basis vector e_r.  The module
    works over the integers: each generator is stored once as integer rows
    with one positive denominator d (the lcm of its row denominators: the
    denominator of q0 for word modules, 1 for flags), and a vector inside
    the engine is (integer list, den > 0), whose den a generator step
    multiplies by d.  Fractions appear only at the public boundary: every
    public method takes and returns dense lists of Fractions, converting
    once on the way in and once on the way out.  The integer terms of each
    HeckeElement it acts by are computed once, keyed by the element's
    equality, not its identity.
    """

    def __init__(self, n, q0, dim, gen_rows):
        self.n = n
        self.q0 = Fraction(q0)
        self.dim = dim
        self._gens = {i: _cleared_rows(rows) for i, rows in gen_rows.items()}
        self._elements = {}  # HeckeElement -> its _int_terms at q0

    def _times(self, num, rows):
        """The integer vector num times the sparse integer rows."""
        out = [0] * self.dim
        for x, row in zip(num, rows):
            if x:
                for j, c in row:
                    out[j] += x * c
        return out

    def _word(self, num, den, word):
        for i in word:
            d, rows = self._gens[i]
            num, den = self._times(num, rows), den * d
        return num, den

    def apply_gen(self, v, i):
        return _fractions(*self._word(*_ints(v), (i,)))

    def _terms_at(self, elem):
        """[(reduced word of w, c_w(q0))] for a HeckeElement of the same n."""
        if elem.n != self.n:
            raise SizeMismatch("HeckeElement size != module n")
        return [(w.reduced_word(), c.eval(self.q0))
                for w, c in elem.terms.items()]

    def _int_terms(self, terms):
        """(L, [(word, f)]) with sum_w f_w (integer rows of the word) / L equal
        to sum_w c_w T_w for the (word, c_w) terms: L is the lcm over the
        terms of den(c_w) times the product of the word's generator dens."""
        scaled = [(word, c, c.denominator
                   * math.prod(self._gens[i][0] for i in word))
                  for word, c in terms]
        lcm = math.lcm(*(d for _, _, d in scaled))
        return lcm, [(word, c.numerator * (lcm // d)) for word, c, d in scaled]

    def _element_terms(self, elem):
        """The integer terms of elem at q0, evaluated on first use."""
        terms = self._elements.get(elem)
        if terms is None:
            terms = self._elements[elem] = self._int_terms(
                self._terms_at(elem))
        return terms

    def _apply_terms(self, num, den, int_terms):
        lcm, terms = int_terms
        out = [0] * self.dim
        for word, f in terms:
            img, _ = self._word(num, den, word)
            for j, x in enumerate(img):
                if x:
                    out[j] += f * x
        return out, den * lcm

    def apply_hecke(self, v, elem):
        """v . a for a HeckeElement a."""
        return _fractions(*self._apply_terms(*_ints(v),
                                             self._element_terms(elem)))

    def _int_rows(self, apply_int):
        """apply_int(e_r, 1) for each basis vector e_r in turn, for an
        apply_int taking and returning (integer list, den)."""
        for r in range(self.dim):
            e = [0] * self.dim
            e[r] = 1
            yield apply_int(e, 1)

    def word_matrix(self, word):
        """Matrix of T_{s_i1} T_{s_i2} ... applied generator by generator."""
        return [_fractions(*row) for row in self._int_rows(
            lambda num, den: self._word(num, den, word))]

    def gen_matrix(self, i):
        return self.word_matrix((i,))

    def _hecke_rows(self, elem):
        """(integer row, den) of e_r . elem for each basis vector e_r in
        turn: the rows of hecke_matrix(elem) before they become Fractions."""
        terms = self._element_terms(elem)
        return self._int_rows(
            lambda num, den: self._apply_terms(num, den, terms))

    def hecke_matrix(self, elem):
        """Matrix of right multiplication by elem."""
        return [_fractions(*row) for row in self._hecke_rows(elem)]


# -- matrices and identity checks -------------------------------------

@memo
def _regular_module(n, q0):
    """The regular representation at q0: the word module W^(1^n) on the
    one-line words, which all_permutations lists in Lehmer-rank order."""
    words = [w.one_line for w in all_permutations(n)]
    return HeckeModule(n, q0, len(words), word_gen_rows(words, q0))


def regular_rep_matrix(a, q0):
    """Matrix of right multiplication by a on the T_w basis at q = q0.

    Row/column indices are Lehmer ranks; row r holds T_{w_r} * a.
    """
    return _regular_module(a.n, q0).hecke_matrix(a)


def recursion_check(n):
    """B_n R_n = (q R_{n-1} + [n]_q + q^n J_n) B_n, symbolically."""
    bn = b2r(n)
    lhs = bn * r2r(n)
    inner = (r2b_embedded(n - 1, n) * b2r_embedded(n - 1, n)).scale(Q)
    inner = inner + HeckeElement.one(n).scale(qint(n))
    inner = inner + jucys_murphy_scaled(n, n)
    rhs = inner * bn
    return lhs == rhs


def intermediate_recursion_check(n):
    """B_n B*_n = B*_{n-1} T_{s_{n-1}} B_{n-1} + [n]_q + q^n J_n."""
    lhs = b2r(n) * r2b(n)
    rhs = (r2b_embedded(n - 1, n).mul_gen(n - 1) * b2r_embedded(n - 1, n)
           + HeckeElement.one(n).scale(qint(n))
           + jucys_murphy_scaled(n, n))
    return lhs == rhs


def annihilator_check(a, n):
    """prod over j in [0,n], j != 1, of (a - [n-j]_q) equals 0."""
    prod = HeckeElement.one(n)
    for j in range(0, n + 1):
        if j == 1:
            continue
        prod = prod * (a - HeckeElement.one(n).scale(qint(n - j)))
    return prod.is_zero()
