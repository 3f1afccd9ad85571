"""Word modules W^lambda and Specht modules at an exact rational q0.

The word module has basis the words of content lambda (letter i appears
lambda_i times); the right action of a generator on a word w is
    w . T_{s_i} = q w                      if w_i = w_{i+1}
    w . T_{s_i} = w s_i                    if w_i < w_{i+1}
    w . T_{s_i} = q (w s_i) + (q-1) w      if w_i > w_{i+1}.
Young idempotents are Murphy's restricted Lagrange interpolation products
in the Jucys-Murphy elements, applied to vectors factor by factor: entry m
of t contributes one factor (J_m - [c]) / ([c_t(m)] - [c]) for each content
c != c_t(m) of a cell addable to shape(t|_{m-1}), the only eigenvalues J_m
can take on the image of p_{t|_{m-1}} (G. E. Murphy, J. Algebra 173 (1995)
97-121).  Seminormal units are w_t = word(t) . p_t and span the Specht
module S^lambda.

Word modules ride the integer HeckeModule engine: J_m is stored once as
integer rows with one denominator, and each idempotent factor is one
integer row update of a (numerators, den) vector followed by a gcd
reduction, so Fractions appear only where vectors enter and leave.

word_module and specht_module share one built module per (lambda, q0)
through hecke.memo.  All arithmetic is exact at an admissible evaluation
point q0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import linalg
from .hecke import (HeckeModule, _fractions, _ints, jucys_murphy_scaled,
                    memo, word_gen_rows)
from .qpoly import qint
from .tableaux import Partition, ShapeMismatch, enumerate_syt


class InadmissibleQ(ValueError):
    pass


def check_admissible(q0, n):
    """q0 != 0 and [m]_{q0} != 0 for 2 <= m <= n (semisimple H_n(q0))."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise InadmissibleQ("q0 = 0")
    for m in range(2, n + 1):
        if qint(m).eval(q0) == 0:
            raise InadmissibleQ(f"[{m}]_q vanishes at q0 = {q0}")
    return q0


def content_words(lam):
    """All words with letter i appearing lambda_i times, lex sorted."""
    letters = [i + 1 for i, p in enumerate(lam.parts) for _ in range(p)]
    return sorted(set(itertools.permutations(letters)))


class WordModuleRep(HeckeModule):
    """W^lambda over exact rationals at q0, on the words of content lambda."""

    def __init__(self, lam, q0):
        self.lam = lam
        q0 = check_admissible(q0, lam.size)
        self.basis = content_words(lam)
        self.index = {w: i for i, w in enumerate(self.basis)}
        super().__init__(lam.size, q0, len(self.basis),
                         word_gen_rows(self.basis, q0))
        self._jm_int = {}
        self._factors = {}

    def basis_vector(self, word):
        v = [Fraction(0)] * self.dim
        v[self.index[tuple(word)]] = Fraction(1)
        return v

    def _jm(self, m):
        """(d_J, integer rows of d_J J_m(q0)), d_J > 0 the least such
        denominator; built on first use."""
        if m not in self._jm_int:
            scale = self.q0 ** -m
            terms = self._int_terms(
                [(word, scale * c) for word, c in
                 self._terms_at(jucys_murphy_scaled(self.n, m))])
            d_j = terms[0]  # the den of every image of a unit vector
            rows = [[(j, x) for j, x in enumerate(img) if x]
                    for img, _ in self._int_rows(
                        lambda num, den: self._apply_terms(num, den, terms))]
            g = math.gcd(d_j, *(x for row in rows for _, x in row))
            self._jm_int[m] = (d_j // g, [[(j, x // g) for j, x in row]
                                          for row in rows])
        return self._jm_int[m]

    def _jm_times(self, num, m):
        """The integer vector num times the integer rows of d_J J_m: the one
        step through which every J_m factor goes."""
        return self._times(num, self._jm(m)[1])

    def apply_jm(self, v, m):
        num, den = _ints(v)
        return _fractions(self._jm_times(num, m), den * self._jm(m)[0])

    def _factor(self, m, c, d):
        """(p, r, s), s > 0, such that the factor (J_m - [d]) / ([c] - [d])
        maps num / den to (p J num - r num) / (den s), J the integer rows of
        d_J J_m: with [d] = a/b and [c] - [d] = e/f, (p, r, s) = (f b,
        f a d_J, d_J b e), the sign of e moved into p and r.  Computed once
        per (m, c, d)."""
        key = (m, c, d)
        if key not in self._factors:
            d_val = qint(d).eval(self.q0)
            denom = qint(c).eval(self.q0) - d_val
            if denom == 0:
                raise InadmissibleQ(
                    f"idempotent denominator vanishes at q0 = {self.q0}")
            a, b = d_val.numerator, d_val.denominator
            e, f = denom.numerator, denom.denominator
            if e < 0:
                e, f = -e, -f
            d_j = self._jm(m)[0]
            self._factors[key] = (f * b, f * a * d_j, d_j * b * e)
        return self._factors[key]

    def _idempotent(self, num, den, t):
        """(num, den) . p_t over the integers: one row update per factor,
        then division by gcd(den, *num)."""
        shape = list(t.shape.inner.parts)
        for m in range(t.shape.inner.size + 1, t.n + 1):
            cm = t.content_of(m)
            for d in Partition(shape).addable_contents():
                if d == cm:
                    continue
                p, r, s = self._factor(m, cm, d)
                jv = self._jm_times(num, m)
                num = [p * x - r * y for x, y in zip(jv, num)]
                den *= s
                g = math.gcd(den, *num)
                if g > 1:
                    num, den = [x // g for x in num], den // g
            row = t.row_of(m)
            if row > len(shape):
                shape.append(0)
            shape[row - 1] += 1
        return num, den

    def apply_idempotent(self, v, t):
        """v . p_t for a standard tableau t of shape lambda/mu (entries
        |mu|+1..t.n <= n); the factors run over those entries only.

        Entry m contributes one factor per content of a cell addable to
        the running shape mu + (cells of |mu|+1..m-1), so for a skew t the
        result is v . p_t only when v lies in the image of some p_s with
        shape(s) = mu (for example v = u . Phi_t, u in S^mu); for a
        straight t (mu empty) it holds for every v."""
        return _fractions(*self._idempotent(*_ints(v), t))

    def apply_p_lambda(self, v, lam=None):
        """v . p_lambda = sum over t in SYT(lambda) of v . p_t, summed over
        the integers at the lcm of the image denominators."""
        num, den = _ints(v)
        images = [self._idempotent(num, den, t)
                  for t in enumerate_syt(lam or self.lam)]
        common = math.lcm(*(d for _, d in images))
        out = [0] * self.dim
        for img, d in images:
            scale = common // d
            for j, x in enumerate(img):
                if x:
                    out[j] += scale * x
        return _fractions(out, common)

    def idempotent_int_matrix(self, t):
        """(D, P) with P an integer matrix and p_t = P / D: row r of P is
        e_r . p_t, brought to D > 0, the lcm of the row denominators."""
        rows = list(self._int_rows(
            lambda num, den: self._idempotent(num, den, t)))
        d = math.lcm(*(den for _, den in rows))
        return d, [[x * (d // den) for x in num] for num, den in rows]


class SpechtRep:
    """S^lambda realized inside W^lambda by seminormal units."""

    def __init__(self, lam, q0):
        self.lam = lam
        self.q0 = Fraction(q0)
        self.word_module = word_module(lam, q0)
        self.tableaux = enumerate_syt(lam)
        self.units = []
        for t in self.tableaux:
            v = self.word_module.basis_vector(t.word())
            self.units.append(self.word_module.apply_idempotent(v, t))
        self.dim = len(self.units)

    def coords(self, v):
        """Coordinates of v in the unit basis, or None if outside the span."""
        return linalg.solve_in_span(self.units, v)

    def hecke_action_matrix(self, elem):
        """Matrix of elem on S^lambda in the seminormal unit basis."""
        rows = []
        for u in self.units:
            img = self.word_module.apply_hecke(u, elem)
            coords = self.coords(img)
            if coords is None:
                raise ArithmeticError("unit span is not stable under element")
            rows.append(coords)
        return rows


@memo
def word_module(lam, q0):
    """The shared WordModuleRep of lam at q0."""
    return WordModuleRep(lam, q0)


@memo
def specht_module(lam, q0):
    """The shared SpechtRep of lam at q0."""
    return SpechtRep(lam, q0)


def dipper_james_action(t, i, q0):
    """Expected w_t . T_{s_i} from the four-case seminormal formula.

    Returns a mapping tableau -> Fraction coefficient.  q = t . s_i,
    rho = content(t, i) - content(q, i).
    """
    q0 = Fraction(q0)
    ri, ci = t.cell_of(i)
    rj, cj = t.cell_of(i + 1)
    if ri == rj:
        return {t: q0}
    if ci == cj:
        return {t: Fraction(-1)}
    other = t.apply_gen_by_value(i)
    rho = t.content_of(i) - other.content_of(i)
    rho_val = qint(rho).eval(q0)
    out = {t: Fraction(-1) / rho_val}
    if other.dominance_leq(t):
        out[other] = Fraction(1)
    else:
        out[other] = (q0 * qint(rho + 1).eval(q0) * qint(rho - 1).eval(q0)
                      / rho_val ** 2)
    return out


def phi_map(t_skew):
    """The concatenation map Phi_t: W^mu -> W^lambda on basis words.

    word(s) . Phi_t appends the row indices of the entries |mu|+1..|lambda|
    of the skew tableau t.  Returns that suffix, the tuple of row indices.
    """
    lo = t_skew.shape.inner.size
    hi = t_skew.shape.outer.size
    suffix = tuple(t_skew.row_of(k) for k in range(lo + 1, hi + 1))
    return suffix


def phi_apply(v_mu, rep_mu, rep_lam, t_skew):
    """Image in W^lambda of a vector of W^mu under Phi_{t_skew}."""
    if rep_mu.lam != t_skew.shape.inner:
        raise ShapeMismatch("inner shape != mu")
    if rep_lam.lam != t_skew.shape.outer:
        raise ShapeMismatch("outer shape != lambda")
    suffix = phi_map(t_skew)
    out = [Fraction(0)] * rep_lam.dim
    for idx, x in enumerate(v_mu):
        if x:
            out[rep_lam.index[rep_mu.basis[idx] + suffix]] += x
    return out
