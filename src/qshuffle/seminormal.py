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

word_module and specht_module share one built module per (lambda, q0);
clear_module_cache empties that cache.  All arithmetic is exact rational
at an admissible evaluation point q0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .hecke import HeckeModule, jucys_murphy_scaled, word_gen_rows
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
        self._jm_rows = {}

    def basis_vector(self, word):
        v = [Fraction(0)] * self.dim
        v[self.index[tuple(word)]] = Fraction(1)
        return v

    def jm_rows(self, m):
        """Sparse rows of J_m(q0) = sum_{i<m} q0^{i-m} T_{(i,m)}."""
        if m not in self._jm_rows:
            scale = self.q0 ** -m
            mat = self.hecke_matrix(jucys_murphy_scaled(self.n, m))
            self._jm_rows[m] = [[(j, scale * c) for j, c in enumerate(row)
                                 if c] for row in mat]
        return self._jm_rows[m]

    def apply_jm(self, v, m):
        return self._apply_rows(v, self.jm_rows(m))

    def apply_idempotent(self, v, t):
        """v . p_t for a standard tableau t of shape lambda/mu (entries
        |mu|+1..t.n <= n); the factors run over those entries only.

        Entry m contributes one factor per content of a cell addable to
        the running shape mu + (cells of |mu|+1..m-1), so for a skew t the
        result is v . p_t only when v lies in the image of some p_s with
        shape(s) = mu (for example v = u . Phi_t, u in S^mu); for a
        straight t (mu empty) it holds for every v."""
        shape = list(t.shape.inner.parts)
        for m in range(t.shape.inner.size + 1, t.n + 1):
            cm = t.content_of(m)
            cm_val = qint(cm).eval(self.q0)
            for d in Partition(shape).addable_contents():
                if d == cm:
                    continue
                d_val = qint(d).eval(self.q0)
                denom = cm_val - d_val
                if denom == 0:
                    raise InadmissibleQ(
                        f"idempotent denominator vanishes at q0 = {self.q0}")
                jv = self.apply_jm(v, m)
                v = [(jv[j] - d_val * v[j]) / denom for j in range(self.dim)]
            row = t.row_of(m)
            if row > len(shape):
                shape.append(0)
            shape[row - 1] += 1
        return v

    def apply_p_lambda(self, v, lam=None):
        """v . p_lambda = sum over t in SYT(lambda) of v . p_t."""
        lam = lam or self.lam
        out = [Fraction(0)] * self.dim
        for t in enumerate_syt(lam):
            img = self.apply_idempotent(v, t)
            for j in range(self.dim):
                out[j] += img[j]
        return out

    def idempotent_matrix(self, t):
        return self.matrix_of(lambda v: self.apply_idempotent(v, t))


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

    def gen_action_matrix(self, i):
        """Matrix of T_{s_i} on S^lambda in the seminormal unit basis."""
        rows = []
        for u in self.units:
            img = self.word_module.apply_gen(u, i)
            coords = self.coords(img)
            if coords is None:
                raise ArithmeticError("unit span is not generator-stable")
            rows.append(coords)
        return rows

    def hecke_action_matrix(self, elem):
        rows = []
        for u in self.units:
            img = self.word_module.apply_hecke(u, elem)
            coords = self.coords(img)
            if coords is None:
                raise ArithmeticError("unit span is not stable under element")
            rows.append(coords)
        return rows


_WORD_MODULES = {}
_SPECHT_MODULES = {}


def word_module(lam, q0):
    """The shared WordModuleRep of lam at q0, built on first use."""
    key = (lam, Fraction(q0))
    if key not in _WORD_MODULES:
        _WORD_MODULES[key] = WordModuleRep(lam, q0)
    return _WORD_MODULES[key]


def specht_module(lam, q0):
    """The shared SpechtRep of lam at q0, built on first use."""
    key = (lam, Fraction(q0))
    if key not in _SPECHT_MODULES:
        _SPECHT_MODULES[key] = SpechtRep(lam, q0)
    return _SPECHT_MODULES[key]


def clear_module_cache():
    """Forget every shared word and Specht module."""
    _WORD_MODULES.clear()
    _SPECHT_MODULES.clear()


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
