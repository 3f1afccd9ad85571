"""Verification suites tying the closed-form results to explicit oracles.

Each check is a named callable returning True/False, or raising
CheckFailed with a witness of where it failed; the CLI runs them and
assembles a report.  Symbolic checks certify identities for every q at
once; matrix checks certify at the exact rational points supplied.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from . import linalg, markov, spectra
from .hecke import (CheckFailed, HeckeElement, _ints, annihilator_check, b2r,
                    b2r_embedded, c_op, clear_module_cache,
                    intermediate_recursion_check, jucys_murphy_scaled,
                    m_alpha, r2b, r2b_embedded, r2r, recursion_check,
                    regular_rep_matrix, x_alpha)
from .qpoly import Q, qint
from .seminormal import (dipper_james_action, phi_apply, specht_module,
                         word_module)
from .symmetric import Composition, derangement_count
from .tableaux import (Partition, SkewShape, d_mu, enumerate_syt, extend,
                       f_lambda, horizontal_strips, partitions_of, superstandard)


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


def _first_cell(a, b):
    """First (row, col) at which the matrices a and b differ."""
    return next(((i, j) for i, (ra, rb) in enumerate(zip(a, b))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)


def _require_equal(got, want, what):
    """Raise CheckFailed saying what failed and the first (row, col) at which
    the matrices got and want differ, unless they are equal."""
    if got != want:
        raise CheckFailed(
            f"{what}, first difference at (row, col) {_first_cell(got, want)}")


def _first_index(a, b):
    """First index at which the vectors a and b differ."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


def sub_partitions(lam):
    out = []
    for k in range(lam.size):
        for mu in partitions_of(k):
            if lam.contains(mu):
                out.append(mu)
    return out


# -- individual checks -------------------------------------------------

def check_hecke_relations_symbolic(n):
    """Quadratic, commutation, and braid relations for T_{s_i} in H_n."""
    one = HeckeElement.one(n)
    for i in range(1, n):
        ti = HeckeElement.t_word([i], n)
        if ti * ti != ti.scale(Q - 1) + one.scale(Q):
            return False
        for j in range(i + 2, n):
            tj = HeckeElement.t_word([j], n)
            if ti * tj != tj * ti:
                return False
        if i + 1 < n:
            tj = HeckeElement.t_word([i + 1], n)
            if ti * tj * ti != tj * ti * tj:
                return False
    return True


def check_recursion(n):
    return recursion_check(n) and intermediate_recursion_check(n)


def check_push_through_lemma(n):
    """B*_{n-1} T_{s_{n-1}} B_{n-1} B_n = q R_{n-1} B_n in H_n."""
    bn = b2r(n)
    lhs = r2b_embedded(n - 1, n).mul_gen(n - 1) * b2r_embedded(n - 1, n) * bn
    rhs = ((r2b_embedded(n - 1, n) * b2r_embedded(n - 1, n)) * bn).scale(Q)
    return lhs == rhs


def check_c_factorization(n):
    for j in range(n + 1):
        c = c_op(j, n)
        col = Composition([1] * j + ([n - j] if n - j else []))
        row = Composition(([j] if j else []) + ([n - j] if n - j else []))
        hook = Composition(([j] if j else []) + [1] * (n - j))
        if c != m_alpha(col) * x_alpha(row) or c != x_alpha(hook):
            return False
    return True


def check_annihilating_polynomial(n):
    return annihilator_check(b2r(n), n) and annihilator_check(r2b(n), n)


def check_jm_commute(n):
    jms = [jucys_murphy_scaled(n, k) for k in range(2, n + 1)]
    return all(a * b == b * a for a in jms for b in jms)


def check_word_module_relations(n, q0):
    """The generator rows of every W^lambda satisfy the Hecke relations.
    Each side of a relation is the module's matrix of a word (row r of
    T_i T_j is e_r . T_i . T_j) or, for (q - 1) T_i + q, of an element.  A
    failure raises CheckFailed naming lambda, the relation, the generator
    indices, q0 and the first differing (row, col)."""
    one = HeckeElement.one(n)
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        where = f"on W^{lam} at q0 = {wm.q0}"
        for i in range(1, n):
            quad = HeckeElement.t_word([i], n).scale(Q - 1) + one.scale(Q)
            _require_equal(wm.word_matrix((i, i)), wm.hecke_matrix(quad),
                           f"quadratic relation for T_{i} fails {where}")
            for j in range(i + 1, n):
                if j > i + 1:
                    _require_equal(wm.word_matrix((i, j)),
                                   wm.word_matrix((j, i)),
                                   f"commutation relation for T_{i}, T_{j} "
                                   f"fails {where}")
                else:
                    _require_equal(wm.word_matrix((i, j, i)),
                                   wm.word_matrix((j, i, j)),
                                   f"braid relation for T_{i}, T_{j} fails "
                                   f"{where}")
    return True


def check_seminormal_action(n, q0):
    """Units diagonalize the Jucys-Murphy elements and follow the
    four-case generator formula; a failure raises CheckFailed naming
    lambda, t, q0, the JM index m or generator i, and the first differing
    index."""
    for lam in partitions_of(n):
        rep = specht_module(lam, q0)
        wm = rep.word_module
        where = f"on W^{lam} at q0 = {wm.q0}"
        index = {t: k for k, t in enumerate(rep.tableaux)}
        for k, t in enumerate(rep.tableaux):
            unit = rep.units[k]
            if not any(unit):
                raise CheckFailed(f"unit w_t is zero for t = {t} {where}")
            for m in range(1, n + 1):
                value = qint(t.content_of(m)).eval(q0)
                got, want = wm.apply_jm(unit, m), [value * x for x in unit]
                if got != want:
                    raise CheckFailed(
                        f"w_t J_{m} = [{t.content_of(m)}]_q w_t fails for "
                        f"t = {t} {where}, first difference at index "
                        f"{_first_index(got, want)}")
            for i in range(1, n):
                want = [Fraction(0)] * wm.dim
                for tt, c in dipper_james_action(t, i, q0).items():
                    other = rep.units[index[tt]]
                    want = [e + c * x for e, x in zip(want, other)]
                got = wm.apply_gen(unit, i)
                if got != want:
                    raise CheckFailed(
                        f"w_t T_{i} = the four-case formula fails for t = "
                        f"{t} {where}, first difference at index "
                        f"{_first_index(got, want)}")
    return True


def check_idempotents(n, q0):
    """Shape-lambda idempotents on W^lambda: orthogonal, idempotent, and
    their sum projects onto the Specht component (rank f^lambda, fixes
    every unit).  For n <= 4 the full cross-shape completeness
    sum over all tableaux of size n = identity is also checked.  Every
    comparison is over the integers: p_t = P_t / D_t, each sum is taken at
    the lcm of its denominators, and each side of an equation is scaled by
    the same integer, so each differs where the rational sides do.  A
    failure raises CheckFailed naming lambda, the tableaux, q0 and the
    first differing entry."""
    for lam in partitions_of(n):
        rep = specht_module(lam, q0)
        wm = rep.word_module
        where = f"on W^{lam} at q0 = {wm.q0}"
        mats = [wm.idempotent_int_matrix(t) for t in rep.tableaux]
        zero = [[0] * wm.dim for _ in range(wm.dim)]
        for a, (_, ma) in zip(rep.tableaux, mats):
            for b, (db, mb) in zip(rep.tableaux, mats):
                # p_a p_b = P_a P_b / (D_a D_b); p_a p_a = p_a iff
                # P_a P_a = D_a P_a
                prop = "p_t p_t = p_t" if a == b else "p_s p_t = 0"
                _require_equal(linalg.int_mat_mul(ma, mb),
                               _scaled(db, ma) if a == b else zero,
                               f"{prop} fails for s = {a}, t = {b} {where}")
        den, total = _int_sum(mats)  # p_lambda = total / den
        _require_equal(linalg.int_mat_mul(total, total), _scaled(den, total),
                       f"p_lambda p_lambda = p_lambda fails {where}")
        trace = Fraction(sum(total[i][i] for i in range(wm.dim)), den)
        if trace != f_lambda(lam):  # rank of an idempotent is its trace
            raise CheckFailed(f"trace of p_lambda is {trace}, not f^lambda "
                              f"= {f_lambda(lam)}, {where}")
        for t, unit in zip(rep.tableaux, rep.units):
            num, _ = _ints(unit)
            image = linalg.int_mat_mul([num], total)[0]
            want = [den * x for x in num]
            if image != want:
                raise CheckFailed(
                    f"w_t p_lambda = w_t fails for t = {t} {where}, first "
                    f"difference at index {_first_index(image, want)}")
        if n <= 4:
            every = [m for mu in partitions_of(n) for m in (
                mats if mu == lam else
                [wm.idempotent_int_matrix(t) for t in enumerate_syt(mu)])]
            den, everything = _int_sum(every)
            identity = [[den if i == j else 0 for j in range(wm.dim)]
                        for i in range(wm.dim)]
            _require_equal(everything, identity,
                           f"sum of p_t over all tableaux of size {n} = 1 "
                           f"fails {where}")
    return True


def _scaled(c, matrix):
    return [[c * x for x in row] for row in matrix]


def _int_sum(mats):
    """(L, S) with S / L the sum of P / D over the (D, P) in mats, L the
    lcm of the D."""
    den = math.lcm(*(d for d, _ in mats))
    total = [[0] * len(mats[0][1][0]) for _ in mats[0][1]]
    for d, mat in mats:
        scale = den // d
        for out, row in zip(total, mat):
            for j, x in enumerate(row):
                if x:
                    out[j] += scale * x
    return den, total


def check_phi_morphism(n, q0):
    """Phi_t commutes with the embedded H_|mu| action, and gluing satisfies
    w_{t(s)} = w_s Phi_t p_t."""
    for lam in partitions_of(n):
        rep_lam = word_module(lam, q0)
        for mu in sub_partitions(lam):
            rep_mu = word_module(mu, q0)
            skews = enumerate_syt(SkewShape(lam, mu))
            for t_skew in skews:
                for idx in range(rep_mu.dim):
                    v = [Fraction(0)] * rep_mu.dim
                    v[idx] = Fraction(1)
                    for i in range(1, max(mu.size, 1)):
                        a = phi_apply(rep_mu.apply_gen(v, i), rep_mu, rep_lam,
                                      t_skew)
                        b = rep_lam.apply_gen(
                            phi_apply(v, rep_mu, rep_lam, t_skew), i)
                        if a != b:
                            return False
            if mu.size == 0:
                continue
            rep_s = specht_module(mu, q0)
            for t_skew in skews:
                for k, s in enumerate(rep_s.tableaux):
                    glued = extend(s, t_skew)
                    expect = rep_lam.apply_idempotent(
                        rep_lam.basis_vector(glued.word()), glued)
                    got = phi_apply(rep_s.units[k], rep_s.word_module, rep_lam,
                                    t_skew)
                    got = rep_lam.apply_idempotent(got, glued)
                    if got != expect:
                        return False
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
                if not s.dominance_leq(t) and any(img):
                    raise CheckFailed(
                        f"word(s) p_t = 0 fails for s = {s} not dominated by "
                        f"t = {t} on W^{lam} at q0 = {wm.q0}, first nonzero "
                        f"index {next(j for j, x in enumerate(img) if x)}")
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
                a = rep_lam.apply_idempotent(v, t_skew)
                b = rep_lam.apply_p_lambda(v)
                if a != b:
                    raise CheckFailed(
                        f"w_s Phi p_t = w_s Phi p_lambda fails for lambda = "
                        f"{lam}, mu = {mu}, s = {s}, t = {t_skew} at q0 = "
                        f"{rep_lam.q0}, first difference at index "
                        f"{_first_index(a, b)}")
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
                cell_content = spectra.q_content(
                    SkewShape(lam, smaller)).eval(q0)
                value = (q0 * rec.eigenvalue_at_q0 + qint(n).eval(q0)
                         + q0 ** n * cell_content)
                image = rep_lam.apply_hecke(v, r_op)
                want = [value * x for x in v]
                if image != want:
                    raise CheckFailed(
                        f"u Phi B_{n} p_lambda is not an R_{n}-eigenvector "
                        f"with eigenvalue {value} for lambda = {lam}, "
                        f"lambda' = {smaller}, u = eigenvector "
                        f"{rec.source_index} of strip {smaller}/{rec.mu}, "
                        f"t = {t_skew} at q0 = {q0}, first difference at "
                        f"index {_first_index(image, want)}")
    return True


def check_eigenbasis(n, q0):
    total = 0
    for lam in partitions_of(n):
        spectra.build_eigenbasis(lam, q0)  # raises on failure
        _, kappa = spectra.kernel_basis(lam, q0)
        if len(kappa) != d_mu(lam):
            return False
        total += f_lambda(lam) * len(kappa)
    return total == derangement_count(n)


def check_straightening(n, q0):
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
        strips = set(horizontal_strips(lam))
        for mu in sub_partitions(lam):
            if mu in strips:
                continue
            defect = spectra.strip_vanishing_defect(lam, mu, q0)
            if defect:
                t_skew, s, index = defect
                raise CheckFailed(
                    f"w_s Phi_t C_{mu.size} p_lambda = 0 fails for lambda = "
                    f"{lam}, mu = {mu}, t = {t_skew}, s = {s} at q0 = "
                    f"{Fraction(q0)}, first nonzero index {index}")
    return True


def check_r2r_charpoly(n, q0, route="regular"):
    expected = linalg.poly_from_roots(
        spectra.spectrum_at(spectra.r2r_charpoly_factored(n), q0).items())
    return _charpoly_agrees("r2r", q0, route,
                            _route_factors(r2r(n), n, q0, route), expected)


def check_b_charpoly(n, q0, route="regular"):
    expected = linalg.poly_from_roots(
        spectra.spectrum_at(spectra.b_charpoly_factored(n), q0).items())
    return all(_charpoly_agrees(name, q0, route,
                                _route_factors(op, n, q0, route), expected)
               for name, op in (("b2r", b2r(n)), ("r2b", r2b(n))))


def check_bstar_kernel_lift(n, q0):
    """u in ker B*_j gives a B*_n-eigenvector m_{(1^j, n-j)} u with
    eigenvalue [n-j]_{q0}, in the regular representation; a failure raises
    CheckFailed naming j, q0, the index of the kernel vector and the first
    differing index."""
    bstar_n = regular_rep_matrix(r2b(n), q0)
    for j in range(2, n):
        bstar_j = regular_rep_matrix(
            HeckeElement.one(n) * r2b_embedded(j, n), q0)
        m_mat = regular_rep_matrix(
            m_alpha(Composition([1] * j + [n - j])), q0)
        value = qint(n - j).eval(q0)
        for k, u in enumerate(linalg.left_kernel(bstar_j)):
            lifted = linalg.vec_mat(u, m_mat)
            image = linalg.vec_mat(lifted, bstar_n)
            want = [value * x for x in lifted]
            if image != want:
                raise CheckFailed(
                    f"the lift of kernel vector {k} of B*_{j} is not a "
                    f"B*_{n}-eigenvector with eigenvalue [{n - j}]_q for "
                    f"j = {j} at q0 = {Fraction(q0)}, first difference at "
                    f"index {_first_index(image, want)}")
    return True


def check_mallows_stationarity(n, q0):
    """The walk's transition matrix P is stochastic and the Mallows measure
    pi is stationary; a failure raises CheckFailed naming q0 and either the
    first row that is not stochastic, with its sum and least entry, or the
    first j where (pi P)_j != pi_j, with both values."""
    q0 = Fraction(q0)
    mat = markov.transition_matrix(n, q0)
    for i, row in enumerate(mat):
        if not markov.is_stochastic([row]):
            raise CheckFailed(
                f"row {i} of the walk's transition matrix at q0 = {q0} is "
                f"not stochastic: its entries sum to {sum(row)}, least "
                f"entry {min(row)}")
    pi = markov.mallows(n, q0)
    moved = linalg.vec_mat(pi, mat)
    j = _first_index(moved, pi)
    if j is not None:
        raise CheckFailed(
            f"the Mallows measure is not stationary at q0 = {q0}: "
            f"(pi P)_{j} = {moved[j]}, pi_{j} = {pi[j]}")
    return True


def check_walk_spectrum(n, q0):
    """Char poly of the walk equals the formula spectrum over ([n]_q)^2."""
    q0 = Fraction(q0)
    mat = markov.transition_matrix(n, q0)
    norm = qint(n).eval(q0) ** 2
    expected = linalg.poly_from_roots(
        (value / norm, m) for value, m in spectra.spectrum_at(
            spectra.r2r_charpoly_factored(n), q0).items())
    return _charpoly_agrees("the Mallows walk", q0, "transition matrix",
                            [(None, linalg.charpoly(mat))], expected)


def check_second_eigenvalue(n, q0):
    """Second-largest formula eigenvalue is [n-2]_q [n+1]_q, multiplicity
    n-1; a failure raises CheckFailed naming q0 and the second-largest
    eigenvalue and its multiplicity against [n-2]_q [n+1]_q and n - 1."""
    q0 = Fraction(q0)
    mults = spectra.spectrum_at(spectra.r2r_charpoly_factored(n), q0)
    ordered = sorted(mults, reverse=True)
    second = ordered[1]
    expect = (qint(n - 2) * qint(n + 1)).eval(q0)
    if second != expect or mults[second] != n - 1:
        raise CheckFailed(
            f"the second-largest eigenvalue of r2r at n = {n}, q0 = {q0} is "
            f"{second} with multiplicity {mults[second]}, against "
            f"[n-2]_q [n+1]_q = {expect} and n - 1 = {n - 1}")
    return True


def check_positivity_degree(n):
    for row in spectra.spectrum_table(n):
        if not row.eigenvalue.is_nonneg_integral():
            return False
        if not spectra.degree_check(row.lam, row.mu):
            return False
    return True


def check_diagonalizable(n, q0):
    """R_n(q0) on the regular representation is diagonalizable with the
    formula spectrum; a failure raises CheckFailed naming q0, the eigenvalue
    and its geometric and algebraic multiplicities."""
    defect = spectra.diagonalizability_defect(n, q0)
    if defect:
        value, geometric, algebraic = defect
        raise CheckFailed(
            f"eigenvalue {value} of r2r at q0 = {Fraction(q0)} has geometric "
            f"multiplicity {geometric} (size - rank), algebraic multiplicity "
            f"{algebraic}")
    return True


def _route_factors(op, n, q0, route):
    """(lam, char poly of op on S^lambda) for each lam |- n on the Specht
    route, else [(None, char poly of op on the regular representation)]."""
    if route == "specht":
        return [(lam, linalg.charpoly(
            specht_module(lam, q0).hecke_action_matrix(op)))
            for lam in partitions_of(n)]
    return [(None, spectra.bruteforce_charpoly(op, q0))]


def _charpoly_agrees(op, q0, route, factors, expected):
    """True if the product of factor^(f^lam) over the (lam, factor) pairs
    (lam None: taken once) equals expected; else CheckFailed naming op, q0,
    the route, the first lam after whose factors the product stops dividing
    expected, and the first differing coefficient index."""
    product, prefixes = [Fraction(1)], []
    for lam, factor in factors:
        for _ in range(1 if lam is None else f_lambda(lam)):
            product = linalg.poly_mul(product, factor)
        prefixes.append((lam, product))
    if product == expected:
        return True
    culprit = next((f" on S^{lam}" for lam, prefix in prefixes
                    if lam is not None
                    and any(linalg.poly_divmod(expected, prefix)[1])),
                   "")
    raise CheckFailed(f"char poly of {op}{culprit} at q0 = {Fraction(q0)}, "
                      f"route {route}, differs from the formula at "
                      f"coefficient index {_first_index(product, expected)}")


# -- suite runner ------------------------------------------------------

def run_suite(n, q_values, route="regular"):
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
        run(f"r2r-charpoly[{tag},{route}]",
            lambda q=q0: check_r2r_charpoly(n, q, route))
        run(f"b-charpoly[{tag},{route}]",
            lambda q=q0: check_b_charpoly(n, q, route))
        if route == "regular" and n >= 3:
            run(f"bstar-kernel-lift[{tag}]",
                lambda q=q0: check_bstar_kernel_lift(n, q))
        if route == "regular" and n <= 4:
            run(f"diagonalizable[{tag}]",
                lambda q=q0: check_diagonalizable(n, q))
        if Fraction(q0) >= 1:
            run(f"mallows-stationarity[{tag}]",
                lambda q=q0: check_mallows_stationarity(n, q))
            if route == "regular" and n <= 4:
                run(f"walk-spectrum[{tag}]",
                    lambda q=q0: check_walk_spectrum(n, q))
            if n >= 3:
                run(f"second-eigenvalue[{tag}]",
                    lambda q=q0: check_second_eigenvalue(n, q))
    return results
