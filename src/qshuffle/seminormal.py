"""Word modules W^lambda and Specht modules at an exact rational q0.

The word module has basis the words of content lambda (letter i appears
lambda_i times); the right action of a generator on a word w is
    w . T_{s_i} = q w                      if w_i = w_{i+1}
    w . T_{s_i} = w s_i                    if w_i < w_{i+1}
    w . T_{s_i} = q (w s_i) + (q-1) w      if w_i > w_{i+1}  (word_gen_rows).
The words of content (1^n) are the one-line permutations in Lehmer-rank
order, so W^(1^n) is the regular representation: H_n(q0) acting on itself,
and the one module every spectrum certificate and algebra identity of
verify acts through.

Young idempotents are Murphy's restricted Lagrange interpolation products
in the Jucys-Murphy elements, applied to vectors factor by factor: entry m
of t contributes one factor (J_m - [c]) / ([c_t(m)] - [c]) for each content
c != c_t(m) of a cell addable to shape(t|_{m-1}), the only eigenvalues J_m
can take on the image of p_{t|_{m-1}} (G. E. Murphy, J. Algebra 173 (1995)
97-121).  Seminormal units are w_t = word(t) . p_t and span the Specht
module S^lambda.

Word modules ride the HeckeModule engine's one action path: J_m is the
element q^-m (q^m J_m), built once per module into integer rows like any
other, and each idempotent factor is one row update of a vector's reduced
form (num, den) with those rows (linalg._step).  The factor schedule of
each tableau (its J_m index and integer constants, factor by factor) is
built once per module and replayed once per (vector, tableau): the image
is kept in the module's image table and shared by every later caller.
Every vector here, the seminormal units and every image under T_i, J_m,
p_t, p_lambda and Phi_t, is that reduced form, unique to its value
(linalg), so equal vectors have equal forms.  The form is linalg's: the row update, the rows
of p_t brought to one denominator (_at_lcm), the sums of images of p_t
(_combine) and the coordinates of an image in the units
(solve_in_span).  Fractions remain only as scalars: q0, the generator
entries before they enter the integers, the values at q0 of Laurent
polynomials (read once per (poly, q0) from hecke._value_at) and the
Dipper-James coefficients.

word_module and specht_module share one built module per (lambda, q0)
through hecke.memo.  All arithmetic is exact at an admissible evaluation
point q0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .hecke import CheckFailed, HeckeModule, _jucys_murphy, _value_at, memo
from .linalg import _at_lcm, _combine, _step
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
        if _value_at(qint(m), q0) == 0:
            raise InadmissibleQ(f"[{m}]_q vanishes at q0 = {q0}")
    return q0


def content_words(lam):
    """All words with letter i appearing lambda_i times, lex sorted."""
    letters = [i + 1 for i, p in enumerate(lam.parts) for _ in range(p)]
    return sorted(set(itertools.permutations(letters)))


def word_gen_rows(words, q0):
    """Sparse rows of each T_{s_i} on the span of words at q = q0, by the
    rule above.  The words are tuples of one length, closed under swapping
    neighbours."""
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


class WordModuleRep(HeckeModule):
    """W^lambda over exact rationals at q0, on the words of content lambda."""

    def __init__(self, lam, q0):
        self.lam = lam
        q0 = check_admissible(q0, lam.size)
        self.basis = content_words(lam)
        self.index = {w: i for i, w in enumerate(self.basis)}
        super().__init__(lam.size, q0, len(self.basis),
                         word_gen_rows(self.basis, q0))
        self._factors = {}
        self._schedules = {}
        self._images = {}  # (tuple(num), den, t) -> (num, den) . p_t

    def basis_vector(self, word):
        """The reduced form of the basis vector of word."""
        num = [0] * self.dim
        num[self.index[tuple(word)]] = 1
        return num, 1

    def _jm(self, m):
        """The built (d_J, rows) of J_m = q^-m (q^m J_m) at q0."""
        return self._built(_jucys_murphy(self.n, m))

    def apply_jm(self, v, m):
        return self._act(v, self._jm(m))

    def _factor(self, m, c, d):
        """(p, r, s), s > 0, such that the factor (J_m - [d]) / ([c] - [d])
        maps num / den to (p J num - r num) / (den s), J the integer rows of
        d_J J_m: with [d] = a/b and [c] - [d] = e/f, (p, r, s) = (f b,
        f a d_J, d_J b e), the sign of e moved into p and r.  Computed once
        per (m, c, d)."""
        key = (m, c, d)
        if key not in self._factors:
            d_val = _value_at(qint(d), self.q0)
            denom = _value_at(qint(c), self.q0) - d_val
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

    def _schedule(self, t):
        """[(J, p, r, s)]: the factors of p_t in order, each with the
        integer rows J of J_m and the constants _factor gives it.  Entry m
        of t contributes one factor per content d != c_t(m) of a cell
        addable to the running shape.  Built on first use of t."""
        steps = self._schedules.get(t)
        if steps is None:
            steps = []
            shape = list(t.shape.inner.parts)
            for m in range(t.shape.inner.size + 1, t.n + 1):
                cm = t.content_of(m)
                for d in Partition(shape).addable_contents():
                    if d != cm:
                        steps.append((self._jm(m)[1], *self._factor(m, cm, d)))
                row = t.row_of(m)
                if row > len(shape):
                    shape.append(0)
                shape[row - 1] += 1
            self._schedules[t] = steps
        return steps

    def _idempotent(self, num, den, t):
        """(num, den) . p_t over the integers: one linalg._step per factor
        of t's schedule, replayed once per (vector, tableau) and module.
        The image is shared: callers must not change it."""
        key = (tuple(num), den, t)
        image = self._images.get(key)
        if image is None:
            for rows, p, r, s in self._schedule(t):
                num, den = _step(num, den, rows, p, r, s)
            image = self._images[key] = (num, den)
        return image

    def apply_idempotent(self, v, t):
        """v . p_t for a standard tableau t of shape lambda/mu (entries
        |mu|+1..t.n <= n); the factors run over those entries only.

        Entry m contributes one factor per content of a cell addable to
        the running shape mu + (cells of |mu|+1..m-1), so for a skew t the
        result is v . p_t only when v lies in the image of some p_s with
        shape(s) = mu (for example v = u . Phi_t, u in S^mu); for a
        straight t (mu empty) it holds for every v.  v and the image are
        reduced forms; the image is shared, and callers must not change
        it."""
        return self._idempotent(*v, t)

    def apply_p_lambda(self, v, lam=None):
        """v . p_lambda = sum over t in SYT(lambda) of v . p_t."""
        return self.apply_idempotent_sum(v, enumerate_syt(lam or self.lam))

    def apply_idempotent_sum(self, v, tableaux):
        """v . (sum of p_t over the straight tableaux t), the images summed
        over the integers at the lcm of their denominators."""
        images = [self._idempotent(*v, t) for t in tableaux]
        return _combine(([1] * len(images), 1), images)

    def idempotent_int_matrix(self, t):
        """(D, P) with P an integer matrix and p_t = P / D: row r of P is
        e_r . p_t, brought to D > 0, the lcm of the row denominators."""
        rows, d = _at_lcm([self._idempotent(
            [0] * r + [1] + [0] * (self.dim - r - 1), 1, t)
            for r in range(self.dim)])
        return d, rows


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

    def hecke_action_matrix(self, elem):
        """Matrix of elem on S^lambda in the seminormal unit basis, as the
        reduced forms of its rows (row t: the coordinates of w_t . elem);
        raises CheckFailed naming lambda, q0, the unit's tableau and elem if
        the image of a unit leaves the span of the units."""
        rows = []
        for t, u in zip(self.tableaux, self.units):
            coords = linalg.solve_in_span(
                self.units, self.word_module.apply_hecke(u, elem))
            if coords is None:
                raise CheckFailed(
                    f"the units of S^{self.lam} at q0 = {self.q0} do not span "
                    f"a submodule: w_t . a leaves their span for t = {t}, "
                    f"a = {elem!r}")
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
    rho = content(t, i) - content(q, i).  The q-integers at q0 are read
    from hecke._value_at.
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
    rho_val = _value_at(qint(rho), q0)
    out = {t: Fraction(-1) / rho_val}
    if other.dominance_leq(t):
        out[other] = Fraction(1)
    else:
        out[other] = (q0 * _value_at(qint(rho + 1), q0)
                      * _value_at(qint(rho - 1), q0) / rho_val ** 2)
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
    """Image in W^lambda of a vector of W^mu under Phi_{t_skew}, both
    reduced forms: Phi_t maps basis words to distinct basis words, so the
    numerators move and the den stays."""
    if rep_mu.lam != t_skew.shape.inner:
        raise ShapeMismatch("inner shape != mu")
    if rep_lam.lam != t_skew.shape.outer:
        raise ShapeMismatch("outer shape != lambda")
    suffix = phi_map(t_skew)
    num, den = v_mu
    out = [0] * rep_lam.dim
    for idx, x in enumerate(num):
        if x:
            out[rep_lam.index[rep_mu.basis[idx] + suffix]] += x
    return out, den
