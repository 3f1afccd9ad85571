"""Verification suites tying the closed-form results to explicit oracles.

Each check is a named callable that returns True or raises CheckFailed
with a witness of where it failed; the CLI runs them and assembles a
report.  Every vector and matrix witness is worded by hecke._require_equal
or _require_zero; spectra builds, and the loops that check live here.
Symbolic checks certify identities for every q at once; matrix checks
certify at the exact rational points supplied, on reduced integer forms.
No check takes a char poly: an identity in H_n(q0) is checked on T_1 of
W^(1^n), H_n(q0) acting on itself, and a spectrum by
spectra.certify_spectrum (annihilation on T_1 and power traces).
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache

from . import linalg, markov, spectra
from .hecke import (CheckFailed, HeckeElement, _first_index, _require_equal,
                    _require_same, _require_same_rows, _require_zero,
                    _value_at, annihilator_check, b2r, b2r_embedded, c_op,
                    clear_module_cache, intermediate_recursion_check,
                    jucys_murphy_scaled, m_alpha, r2b, r2b_embedded, r2r,
                    recursion_check, x_alpha)
from .linalg import _combine, _dense, _scale
from .qpoly import Q, ZERO, qint
from .seminormal import (phi_apply, seminormal_module, specht_module,
                         word_module)
from .symmetric import Composition, Permutation, derangement_count
from .tableaux import (Partition, SkewShape, d_mu, enumerate_syt, extend,
                       f_lambda, horizontal_strips, partitions_of,
                       superstandard)


class CheckResult:
    __slots__ = ("check_id", "passed", "elapsed_ms", "detail")

    def __init__(self, check_id, passed, elapsed_ms, detail=""):
        self.check_id = check_id
        self.passed = passed
        self.elapsed_ms = elapsed_ms
        self.detail = detail

    def to_json(self):
        return {"check": self.check_id, "passed": self.passed,
                "elapsed_ms": round(self.elapsed_ms, 1), "detail": self.detail}


def sub_partitions(lam):
    """The partitions mu inside lam with |mu| < |lam|, smallest first, as a
    new list the caller may change."""
    return list(_sub_partitions(lam))


@lru_cache(maxsize=None)
def _sub_partitions(lam):
    """The tuple of sub_partitions(lam), listed once per partition."""
    return tuple(mu for k in range(lam.size) for mu in partitions_of(k)
                 if lam.contains(mu))


# -- individual checks -------------------------------------------------

# The symbolic checks below raise CheckFailed through hecke._require_same,
# naming the relation, n, the first w whose T_w coefficients differ and
# both coefficients.

def check_hecke_relations_symbolic(n):
    """Quadratic, commutation, and braid relations for T_{s_i} in H_n."""
    one = HeckeElement.one(n)
    for i in range(1, n):
        ti = HeckeElement.t_word([i], n)
        _require_same(ti * ti, ti.scale(Q - 1) + one.scale(Q),
                      lambda: f"quadratic relation T_{i} T_{i} = "
                              f"(q-1) T_{i} + q")
        for j in range(i + 2, n):
            tj = HeckeElement.t_word([j], n)
            _require_same(ti * tj, tj * ti,
                          lambda: f"commutation relation T_{i} T_{j} = "
                                  f"T_{j} T_{i}")
        if i + 1 < n:
            tj = HeckeElement.t_word([i + 1], n)
            _require_same(ti * tj * ti, tj * ti * tj,
                          lambda: f"braid relation T_{i} T_{i + 1} T_{i} = "
                                  f"T_{i + 1} T_{i} T_{i + 1}")
    return True


def check_recursion(n):
    recursion_check(n)
    intermediate_recursion_check(n)
    return True


def check_push_through_lemma(n):
    """B*_{n-1} T_{s_{n-1}} B_{n-1} B_n = q R_{n-1} B_n in H_n."""
    bn = b2r(n)
    lhs = r2b_embedded(n - 1, n).mul_gen(n - 1) * b2r_embedded(n - 1, n) * bn
    rhs = ((r2b_embedded(n - 1, n) * b2r_embedded(n - 1, n)) * bn).scale(Q)
    _require_same(lhs, rhs, "push-through lemma B*_{n-1} T_{n-1} B_{n-1} B_n "
                            "= q R_{n-1} B_n")
    return True


def check_c_factorization(n):
    """C_j = m_(1^j, n-j) x_(j, n-j) = x_(j, 1^(n-j)) for 0 <= j <= n."""
    def name(alpha):
        return "(" + ",".join(map(str, alpha.parts)) + ")"

    for j in range(n + 1):
        c = c_op(j, n)
        col = Composition([1] * j + ([n - j] if n - j else []))
        row = Composition(([j] if j else []) + ([n - j] if n - j else []))
        hook = Composition(([j] if j else []) + [1] * (n - j))
        _require_same(c, m_alpha(col) * x_alpha(row),
                      lambda: f"C_{j} = m_{name(col)} x_{name(row)}")
        _require_same(c, x_alpha(hook), lambda: f"C_{j} = x_{name(hook)}")
    return True


def check_annihilating_polynomial(n):
    annihilator_check(b2r(n), n, "B_n")
    annihilator_check(r2b(n), n, "B*_n")
    return True


def check_jm_commute(n):
    """The scaled Jucys-Murphy elements q^k J_k commute pairwise."""
    jms = [(k, jucys_murphy_scaled(n, k)) for k in range(2, n + 1)]
    for j, a in jms:
        for k, b in jms:
            _require_same(a * b, b * a,
                          lambda: f"(q^{j} J_{j})(q^{k} J_{k}) = "
                                  f"(q^{k} J_{k})(q^{j} J_{j})")
    return True


def check_word_module_relations(n, q0):
    """The generator rows of every W^lambda satisfy the Hecke relations.
    Each side of a relation is the module's built (d, rows) of a word (row
    r of T_i T_j is e_r . T_i . T_j) or, for (q - 1) T_i + q, of an
    element.  A failure raises CheckFailed naming lambda, the relation, the
    generator indices, q0 and the first differing (row, col)."""
    one = HeckeElement.one(n)
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        for i in range(1, n):
            quad = HeckeElement.t_word([i], n).scale(Q - 1) + one.scale(Q)
            _require_same_rows(wm, wm.word_rows((i, i)), wm._built(quad),
                               lambda: f"quadratic relation for T_{i} fails "
                                       f"{_on(wm)}")
            for j in range(i + 1, n):
                name, a, b = (("commutation", (i, j), (j, i)) if j > i + 1
                              else ("braid", (i, j, i), (j, i, j)))
                _require_same_rows(wm, wm.word_rows(a), wm.word_rows(b),
                                   lambda: f"{name} relation for T_{i}, T_{j} "
                                           f"fails {_on(wm)}")
    return True


def check_seminormal_action(n, q0):
    """Units diagonalize the Jucys-Murphy elements and follow the
    four-case generator formula: w_t T_i is the units combined by row t
    of T_i's built rows on the seminormal module, the rows kernel_basis
    reads.  A failure raises CheckFailed naming lambda, t, q0, the JM
    index m or generator i, and the first differing index."""
    for lam in partitions_of(n):
        rep = specht_module(lam, q0)
        wm = rep.word_module
        gens = {i: (d, list(_dense(rows, rep.dim))) for i, (d, rows)
                in seminormal_module(lam, q0)._gens.items()}
        for k, (t, unit) in enumerate(zip(rep.tableaux, rep.units)):
            if not any(unit[0]):
                raise CheckFailed(f"unit w_t is zero for t = {t} {_on(wm)}")
            for m in range(1, n + 1):
                value = _value_at(qint(t.content_of(m)), q0)
                _require_equal(wm.apply_jm(unit, m), _scale(unit, value),
                               lambda: f"w_t J_{m} = [{t.content_of(m)}]_q "
                                       f"w_t fails for t = {t} {_on(wm)}")
            for i in range(1, n):
                d, rows = gens[i]
                _require_equal(wm.apply_gen(unit, i),
                               _combine((rows[k], d), rep.units),
                               lambda: f"w_t T_{i} = the four-case formula "
                                       f"fails for t = {t} {_on(wm)}")
    return True


def check_idempotents(n, q0):
    """Shape-lambda idempotents: orthogonal and idempotent in H_n(q0), and
    their sum projects each W^lambda onto its Specht component (trace
    f^lambda, fixes every unit).

    W^(1^n) is H_n(q0) acting on itself, with T_1 its first basis vector,
    so h = 0 exactly when T_1 . h = 0.  With u_t = T_1 . p_t, the identities
    u_s . p_t = delta_st u_s for s, t in SYT(lambda) say T_1 . (p_s p_t -
    delta_st p_s) = 0, so p_s p_t = delta_st p_t holds in the algebra and on
    every module, and p_lambda^2 = p_lambda by summing.  On W^lambda the
    trace of p_lambda, the sum of the diagonals of the P_t / D_t, must be
    f^lambda (the rank of an idempotent is its trace), and w_t . p_lambda =
    w_t for every unit.  Then completeness, the sum of p_t over all
    tableaux of size n equal to 1, is checked on the same u_t by
    _require_complete.  A failure raises CheckFailed naming lambda, the
    tableaux, the module, q0 and the first differing or nonzero index, or
    the trace."""
    reg = _regular(n, q0)
    t1 = reg.basis_vector(reg.basis[0])
    zero = ([0] * reg.dim, 1)
    for lam in partitions_of(n):
        rep = specht_module(lam, q0)
        wm = rep.word_module
        for s in rep.tableaux:
            u = reg.apply_idempotent(t1, s)
            for t in rep.tableaux:
                prop = "p_t p_t = p_t" if s == t else "p_s p_t = 0"
                _require_equal(reg.apply_idempotent(u, t),
                               u if s == t else zero,
                               lambda: f"{prop} fails in H_{n} for s = {s}, "
                                       f"t = {t}: T_1 . p_s p_t {_on(reg)}")
        trace = sum(Fraction(sum(row[r] for r, row in enumerate(mat)), d)
                    for d, mat in map(wm.idempotent_int_matrix, rep.tableaux))
        if trace != f_lambda(lam):
            raise CheckFailed(f"trace of p_lambda is {trace}, not f^lambda "
                              f"= {f_lambda(lam)}, {_on(wm)}")
        for t, unit in zip(rep.tableaux, rep.units):
            _require_equal(wm.apply_p_lambda(unit), unit,
                           lambda: f"w_t p_lambda = w_t fails for t = {t} "
                                   f"{_on(wm)}")
    _require_complete(n, q0)
    return True


def _require_complete(n, q0):
    """The sum of p_t over every standard tableau t of size n is 1 in
    H_n(q0).  W^(1^n) is H_n(q0) acting on itself, with T_1 its first basis
    vector, so an element h is 0 exactly when T_1 . h is: the images T_1 .
    p_t, shared with check_idempotents through the module's image table,
    decide the identity, which then holds on every module.  A failure
    raises CheckFailed naming n, W^(1^n), q0 and the first index at which
    T_1 . sum p_t differs from T_1."""
    reg = _regular(n, q0)
    unit = reg.basis_vector(reg.basis[0])
    _require_equal(reg.apply_idempotent_sum(unit, [
        t for mu in partitions_of(n) for t in enumerate_syt(mu)]), unit,
        lambda: f"sum of p_t over all tableaux of size {n} = 1 fails "
                f"{_on(reg)}")


def _on(wm):
    return f"on W^{wm.lam} at q0 = {wm.q0}"


def _regular(n, q0):
    """The shared regular module W^(1^n) at q0."""
    return word_module(Partition((1,) * n), q0)


def check_phi_morphism(n, q0):
    """Phi_t commutes with the embedded H_|mu| action, and gluing satisfies
    w_{t(s)} = w_s Phi_t p_{t(s)}; a failure raises CheckFailed naming
    lambda, mu, the skew tableau t, the basis word of W^mu and generator
    T_i or the tableau s, q0 and the first differing index."""
    for lam in partitions_of(n):
        rep_lam = word_module(lam, q0)
        rep = specht_module(lam, q0)
        unit = dict(zip(rep.tableaux, rep.units))  # w_t(s) for each t(s)
        for mu in sub_partitions(lam):
            rep_mu = word_module(mu, q0)
            skews = enumerate_syt(SkewShape(lam, mu))
            for t_skew in skews:
                for word in rep_mu.basis:
                    v = rep_mu.basis_vector(word)
                    for i in range(1, max(mu.size, 1)):
                        _require_equal(
                            phi_apply(rep_mu.apply_gen(v, i), rep_mu, rep_lam,
                                      t_skew),
                            rep_lam.apply_gen(
                                phi_apply(v, rep_mu, rep_lam, t_skew), i),
                            lambda: f"Phi_t T_{i} = T_{i} Phi_t fails on the "
                                    f"word {word} of W^{mu} for lambda = "
                                    f"{lam}, mu = {mu}, t = {t_skew} at q0 = "
                                    f"{rep_lam.q0}")
            if mu.size == 0:
                continue
            rep_s = specht_module(mu, q0)
            for t_skew in skews:
                for s, w_s in zip(rep_s.tableaux, rep_s.units):
                    glued = extend(s, t_skew)
                    v = phi_apply(w_s, rep_s.word_module, rep_lam, t_skew)
                    _require_equal(
                        rep_lam.apply_idempotent(v, glued), unit[glued],
                        lambda: f"w_t(s) = w_s Phi_t p_t(s) fails for lambda "
                                f"= {lam}, mu = {mu}, s = {s}, t = {t_skew} "
                                f"at q0 = {rep_lam.q0}")
    return True


def check_dominance_vanishing(n, q0):
    """word(s) . p_t = 0 unless s is dominated by t; a failure raises
    CheckFailed naming lambda, s, t, q0 and the first nonzero index."""
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        tabs = enumerate_syt(lam)
        for t in tabs:
            for s in tabs:
                img = wm.apply_idempotent(wm.basis_vector(s.word()), t)
                if not s.dominance_leq(t):
                    _require_zero(img, lambda: f"word(s) p_t = 0 fails for "
                                               f"s = {s} not dominated by t = "
                                               f"{t} {_on(wm)}")
    return True


def check_projection_compat(n, q0):
    """u Phi p_{t^strip} = u Phi p_lambda on S^mu for horizontal strips; a
    failure raises CheckFailed naming lambda, mu, the tableaux, q0 and the
    first differing index."""
    for lam in partitions_of(n):
        rep_lam = word_module(lam, q0)
        for mu in horizontal_strips(lam):
            if mu == lam or mu.size == 0:
                continue
            t_skew = superstandard(SkewShape(lam, mu))
            rep_s = specht_module(mu, q0)
            for s, unit in zip(rep_s.tableaux, rep_s.units):
                v = phi_apply(unit, rep_s.word_module, rep_lam, t_skew)
                _require_equal(rep_lam.apply_idempotent(v, t_skew),
                               rep_lam.apply_p_lambda(v),
                               lambda: f"w_s Phi p_t = w_s Phi p_lambda fails "
                                       f"for lambda = {lam}, mu = {mu}, s = "
                                       f"{s}, t = {t_skew} at q0 = "
                                       f"{rep_lam.q0}")
    return True


def check_one_step_recursion(n, q0):
    """Every R_{n-1}-eigenvector u on S^{lambda'} maps to zero or an
    R_n-eigenvector u Phi B_n p_lambda with eigenvalue q E + [n]_q + q^n c;
    a failure raises CheckFailed naming lambda, lambda', the strip mu and
    index of u, the skew tableau, q0 and the first differing index."""
    q0 = Fraction(q0)
    r_op = r2r(n)
    for lam in partitions_of(n):
        rep_lam = word_module(lam, q0)
        for smaller in lam.removable_corners():
            for rec in spectra.build_eigenbasis(smaller, q0):
                t_skew = superstandard(SkewShape(lam, smaller))
                rep_small = word_module(smaller, q0)
                v = phi_apply(rec.vector, rep_small, rep_lam, t_skew)
                v = rep_lam.apply_hecke(v, b2r_embedded(n, n))
                v = rep_lam.apply_p_lambda(v)
                cell_content = _value_at(spectra.q_content(
                    SkewShape(lam, smaller)), q0)
                value = (q0 * rec.eigenvalue_at_q0 + _value_at(qint(n), q0)
                         + q0 ** n * cell_content)
                _require_equal(rep_lam.apply_hecke(v, r_op),
                               _scale(v, value),
                               lambda: f"u Phi B_{n} p_lambda is not an "
                                       f"R_{n}-eigenvector with eigenvalue "
                                       f"{value} for lambda = {lam}, lambda' "
                                       f"= {smaller}, u = eigenvector "
                                       f"{rec.source_index} of strip "
                                       f"{smaller}/{rec.mu}, t = {t_skew} at "
                                       f"q0 = {q0}")
    return True


def check_eigenbasis(n, q0):
    """Each S^lambda has the eigenbasis of build_eigenbasis, ker R_n on it
    has dimension d^lambda, and sum f^lambda d^lambda is the derangement
    count; a failure raises CheckFailed naming lambda, q0 and the strip,
    kernel vector and first differing index, or the two counts."""
    total = 0
    for lam in partitions_of(n):
        spectra.build_eigenbasis(lam, q0)  # raises on failure
        _, kappa = spectra.kernel_basis(lam, q0)
        if len(kappa) != d_mu(lam):
            raise CheckFailed(
                f"ker R_{n} on S^{lam} at q0 = {Fraction(q0)} has dimension "
                f"{len(kappa)}, not d^lambda = {d_mu(lam)}")
        total += f_lambda(lam) * len(kappa)
    if total != derangement_count(n):
        raise CheckFailed(
            f"sum of f^lambda d^lambda over lambda |- {n} at q0 = "
            f"{Fraction(q0)} is {total}, not the derangement count "
            f"{derangement_count(n)}")
    return True


def check_straightening(n, q0):
    """spectra.straightening_scalars holds for every mu inside every lambda
    |- n; a failure raises CheckFailed naming lambda, mu, t, s, q0 and the
    first index where proportionality fails."""
    for lam in partitions_of(n):
        for mu in sub_partitions(lam):
            spectra.straightening_scalars(lam, mu, q0)  # raises on failure
    return True


def check_strip_vanishing(n, q0):
    """u Phi_t C_|mu| p_lambda = 0 for every mu inside lambda with
    lambda/mu not a horizontal strip; a failure raises CheckFailed naming
    lambda, mu, the skew tableau t, the unit w_s, q0 and the first nonzero
    index."""
    for lam in partitions_of(n):
        rep_lam = word_module(lam, q0)
        strips = set(horizontal_strips(lam))
        for mu in sub_partitions(lam):
            if mu in strips:
                continue
            rep_mu = specht_module(mu, q0)
            for t_skew in enumerate_syt(SkewShape(lam, mu)):
                for s, u in zip(rep_mu.tableaux, rep_mu.units):
                    v = phi_apply(u, rep_mu.word_module, rep_lam, t_skew)
                    v = spectra.apply_c_op(rep_lam, v, mu.size)
                    _require_zero(rep_lam.apply_p_lambda(v),
                                  lambda: f"w_s Phi_t C_{mu.size} p_lambda = "
                                          f"0 fails for lambda = {lam}, mu = "
                                          f"{mu}, t = {t_skew}, s = {s} at "
                                          f"q0 = {rep_lam.q0}")
    return True


def check_r2r_charpoly(n, q0):
    """R_n(q0) on the regular representation is diagonalizable with the
    formula spectrum, so its char poly is prod (y - E)^m over it.  Its
    minimal polynomial divides prod_E (y - E) over the distinct formula
    values E at q0: R_n(q0) acts on W^(1^n), H_n(q0) acting on itself,
    whose first basis vector is T_1, so the product is 0 exactly when
    T_1 . prod_E (R_n - E) is.  R_n(q0) is then diagonalizable with
    eigenvalues among the E, and the power traces tr_reg(R_n^k) =
    sum_E m_E E^k, k below the number of values, fix each multiplicity, so
    each geometric multiplicity is the formula's: spectra.certify_spectrum.
    A failure raises CheckFailed naming q0 and the first nonzero index of
    T_1 . prod_E (R_n - E), or the first k whose traces differ, with both
    traces."""
    spectra.certify_spectrum(
        _regular(n, q0), r2r(n),
        spectra.spectrum_at(spectra.r2r_charpoly_factored(n), q0), "r2r")
    return True


def check_b_charpoly(n, q0):
    """The char polys of B_n(q0) and B*_n(q0) are prod (y - [n-j]_q0)^m over
    b_charpoly_factored, each by spectra.certify_spectrum as for
    r2r-charpoly."""
    mults = spectra.spectrum_at(spectra.b_charpoly_factored(n), q0)
    for name, op in (("b2r", b2r(n)), ("r2b", r2b(n))):
        spectra.certify_spectrum(_regular(n, q0), op, mults, name)
    return True


def check_bstar_kernel_lift(n, q0):
    """u in ker B*_j gives a B*_n-eigenvector m_{(1^j, n-j)} u with
    eigenvalue [n-j]_{q0}, in the regular representation; a failure raises
    CheckFailed naming j, q0, the index of the kernel vector and the first
    differing index.  Only ker B*_j is taken of a dense matrix, d B*_j."""
    reg = _regular(n, q0)
    for j in range(2, n):
        m_j = m_alpha(Composition([1] * j + [n - j]))
        value = _value_at(qint(n - j), q0)
        for k, u in enumerate(linalg.left_kernel(
                [row for row, _ in reg._hecke_rows(r2b_embedded(j, n))])):
            lifted = reg.apply_hecke(u, m_j)
            _require_equal(reg.apply_hecke(lifted, r2b(n)),
                           _scale(lifted, value),
                           lambda: f"the lift of kernel vector {k} of B*_{j} "
                                   f"is not a B*_{n}-eigenvector with "
                                   f"eigenvalue [{n - j}]_q for j = {j} at "
                                   f"q0 = {Fraction(q0)}")
    return True


def check_mallows_stationarity(n, q0):
    """The walk P = D^-1 M D / [n]_q^2 (M_ij = [T_j](T_i R_n),
    D = diag(q^l(w))) is a Markov chain with the Mallows measure
    pi_w ~ q^l(w) stationary, at every q >= 1.  eps(T_w) = q^l(w) is an
    algebra map (T_s -> q kills (T_s - q)(T_s + 1)) and x = sum_w T_w has
    x h = eps(h) x (pair w with w s).  So x R_n = eps(R_n) x gives
    sum_i M_ij = eps(R_n), and eps(T_i R_n) gives sum_j M_ij q^l(j) =
    q^l(i) eps(R_n): once eps(R_n) = [n]_q^2, P's rows sum to 1 and
    pi P = pi.  P >= 0 at q >= 1 once R_n's coefficients lie in N[q - 1],
    as T_s acts by entries 1, q and q - 1.  A failure names n and the first
    w (Lehmer order) whose coefficient leaves N[q - 1], or eps(R_n) against
    [n]_q^2; _require_mallows_rows then checks both at q0."""
    terms = r2r(n).terms
    bad = [w for w, c in terms.items() if not c.is_nonneg_in_q_minus_1()]
    if bad:
        w = min(bad, key=Permutation.lehmer_rank)
        raise CheckFailed(f"the coefficient of T_w in r2r for w = {w} at "
                          f"n = {n} is {terms[w]}, not in N[q - 1]")
    eps = sum((c.shift(w.length()) for w, c in terms.items()), ZERO)
    if eps != qint(n) ** 2:
        raise CheckFailed(f"the trivial character of r2r at n = {n} is "
                          f"{eps}, not [{n}]_q^2 = {qint(n) ** 2}")
    _require_mallows_rows(n, q0)
    return True


def _require_mallows_rows(n, q0):
    """check_mallows_stationarity at q0, in integers on the built (d, rows)
    of d M on the shared regular module W^(1^n), with c = [n]_{q0}^2 and w
    = markov._weights: every entry >= 0, each column sums to d c, and
    sum_j rows_ij w_j = d c w_i; else CheckFailed naming q0 and the first
    negative entry, or the first column or row that fails, both sides."""
    d, rows = _regular(n, q0)._built(r2r(n))
    for i, row in enumerate(rows):
        for j, c in row:
            if c < 0:
                raise CheckFailed(
                    f"entry ({i}, {j}) of the walk's transition matrix at "
                    f"q0 = {q0} is negative: M_ij = {Fraction(c, d)}")
    norm = _value_at(qint(n), q0) ** 2
    cols = linalg._times([1] * len(rows), rows, len(rows))
    j = _first_index([x * norm.denominator for x in cols],
                     [d * norm.numerator] * len(cols))
    if j is not None:
        raise CheckFailed(
            f"the Mallows measure is not stationary at q0 = {q0}: column "
            f"{j} of the regular matrix of r2r sums to {Fraction(cols[j], d)}"
            f", not [{n}]_q^2 = {norm}")
    weights = markov._weights(n, q0)
    for i, (w_i, row) in enumerate(zip(weights, rows)):
        total = sum(c * weights[j] for j, c in row) * norm.denominator
        if total != d * w_i * norm.numerator:
            raise CheckFailed(
                f"row {i} of the walk's transition matrix at q0 = {q0} is "
                f"not stochastic: its entries sum to "
                f"{Fraction(total, d * w_i * norm.numerator)}, not 1")


def check_walk_spectrum(n, q0):
    """The walk's spectrum is the formula spectrum over [n]_q^2.

    The walk D^-1 M D / c (M the regular matrix of R_n, c = [n]_q^2) is
    similar to M / c, so spectra.certify_spectrum on R_n / c, with the
    formula values over c, proves its char poly: T_1 . prod (R_n - E) = 0,
    and tr_reg(R_n^k) / c^k = sum m (E / c)^k for k below the number of
    values.  A failure raises CheckFailed naming the walk, q0 and the
    first nonzero index or the first k, with both traces."""
    norm = _value_at(qint(n), q0) ** 2
    mults = spectra.spectrum_at(spectra.r2r_charpoly_factored(n), q0)
    spectra.certify_spectrum(
        _regular(n, q0), r2r(n), {e / norm: m for e, m in mults.items()},
        "the Mallows walk", norm)
    return True


def check_second_eigenvalue(n, q0):
    """Second-largest formula eigenvalue is [n-2]_q [n+1]_q, multiplicity
    n-1; a failure raises CheckFailed naming q0 and the second-largest
    eigenvalue and its multiplicity against [n-2]_q [n+1]_q and n - 1."""
    q0 = Fraction(q0)
    mults = spectra.spectrum_at(spectra.r2r_charpoly_factored(n), q0)
    ordered = sorted(mults, reverse=True)
    second = ordered[1]
    expect = _value_at(qint(n - 2) * qint(n + 1), q0)
    if second != expect or mults[second] != n - 1:
        raise CheckFailed(
            f"the second-largest eigenvalue of r2r at n = {n}, q0 = {q0} is "
            f"{second} with multiplicity {mults[second]}, against "
            f"[n-2]_q [n+1]_q = {expect} and n - 1 = {n - 1}")
    return True


def check_positivity_degree(n):
    """Each E_{lambda/mu} has nonnegative integer coefficients and no
    negative exponent, and degree n + C - 1, C the largest strip content;
    a failure raises CheckFailed naming lambda, mu, E and the property."""
    for row in spectra.spectrum_table(n):
        if not row.eigenvalue.is_nonneg_integral():
            raise CheckFailed(f"positivity fails {_of(row)} has a negative "
                              f"exponent or a coefficient that is not a "
                              f"nonnegative integer")
        if not spectra.degree_check(row.lam, row.mu):
            raise CheckFailed(f"the degree check fails {_of(row)} is not of "
                              f"degree n + C - 1 (C the largest strip "
                              f"content; E = 0 when mu = lambda)")
    return True


def _of(row):
    return (f"for lambda = {row.lam}, mu = {row.mu}: E_lambda/mu = "
            f"{row.eigenvalue}")


# -- suite runner ------------------------------------------------------

def run_suite(n, q_values):
    """Run every check for one n; returns a list of CheckResult.

    Starts from an empty module cache, so each run builds its own word and
    Specht modules."""
    clear_module_cache()
    results = []

    def run(check_id, fn):
        start = time.perf_counter()
        try:
            passed = bool(fn())
            detail = ""
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            passed = False
            detail = f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(check_id, passed,
                                   (time.perf_counter() - start) * 1000,
                                   detail))

    run("hecke-relations-symbolic", lambda: check_hecke_relations_symbolic(n))
    if n >= 2:
        run("recursion", lambda: check_recursion(n))
        run("push-through-lemma", lambda: check_push_through_lemma(n))
    run("c-factorization", lambda: check_c_factorization(n))
    run("annihilating-polynomial", lambda: check_annihilating_polynomial(n))
    run("jucys-murphy-commute", lambda: check_jm_commute(n))
    run("positivity-degree", lambda: check_positivity_degree(n))
    for q0 in q_values:
        tag = f"q={q0}"
        run(f"word-module-relations[{tag}]",
            lambda q=q0: check_word_module_relations(n, q))
        run(f"seminormal-action[{tag}]",
            lambda q=q0: check_seminormal_action(n, q))
        run(f"idempotents[{tag}]", lambda q=q0: check_idempotents(n, q))
        run(f"phi-morphism[{tag}]", lambda q=q0: check_phi_morphism(n, q))
        if n <= 4:
            run(f"dominance-vanishing[{tag}]",
                lambda q=q0: check_dominance_vanishing(n, q))
        run(f"projection-compat[{tag}]",
            lambda q=q0: check_projection_compat(n, q))
        run(f"straightening[{tag}]", lambda q=q0: check_straightening(n, q))
        run(f"strip-vanishing[{tag}]",
            lambda q=q0: check_strip_vanishing(n, q))
        if Fraction(q0) > 0:
            run(f"eigenbasis[{tag}]", lambda q=q0: check_eigenbasis(n, q))
            if n >= 2:
                run(f"one-step-recursion[{tag}]",
                    lambda q=q0: check_one_step_recursion(n, q))
        # the ",regular" tag and the diagonalizable ID (r2r-charpoly's check
        # again) keep the check IDs that goldens and pinned verdicts key on
        run(f"r2r-charpoly[{tag},regular]",
            lambda q=q0: check_r2r_charpoly(n, q))
        run(f"b-charpoly[{tag},regular]",
            lambda q=q0: check_b_charpoly(n, q))
        if n >= 3:
            run(f"bstar-kernel-lift[{tag}]",
                lambda q=q0: check_bstar_kernel_lift(n, q))
        run(f"diagonalizable[{tag}]", lambda q=q0: check_r2r_charpoly(n, q))
        if Fraction(q0) >= 1:
            run(f"mallows-stationarity[{tag}]",
                lambda q=q0: check_mallows_stationarity(n, q))
            run(f"walk-spectrum[{tag}]",
                lambda q=q0: check_walk_spectrum(n, q))
            if n >= 3:
                run(f"second-eigenvalue[{tag}]",
                    lambda q=q0: check_second_eigenvalue(n, q))
    return results
