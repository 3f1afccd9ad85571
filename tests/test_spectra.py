import json
import math
from fractions import Fraction

import pytest

from qshuffle import linalg, seminormal, spectra
from qshuffle.linalg import _fractions
from conftest import regular_matrix, swapped_word_gen_rows
from qshuffle.hecke import (HeckeElement, HeckeModule, b2r, clear_module_cache,
                            r2b, r2r)
from qshuffle.qpoly import ONE, Q, LaurentPoly, qint
from qshuffle.spectra import (NotAHorizontalStrip, build_eigenbasis,
                              eigenvalue_formula, kernel_basis, spectrum_table)
from qshuffle.symmetric import all_permutations, derangement_count
from qshuffle.seminormal import WordModuleRep, seminormal_module, word_module
from qshuffle.tableaux import (Partition, SkewShape, d_mu, enumerate_syt,
                               f_lambda, horizontal_strips, partitions_of,
                               superstandard)
from qshuffle.cli import main
from qshuffle.verify import (CheckFailed, check_b_charpoly, check_eigenbasis,
                             check_one_step_recursion, check_positivity_degree,
                             check_r2r_charpoly, check_straightening,
                             check_strip_vanishing, run_suite)


def P(*parts):
    return Partition(parts)


def test_eigenvalue_closed_forms():
    # full row: ([n]_q)^2
    for n in range(1, 7):
        assert eigenvalue_formula(P(n), P()) == qint(n) * qint(n)
    # empty strip: 0
    assert eigenvalue_formula(P(2, 1), P(2, 1)) == LaurentPoly.zero()
    # near-hook: [n-2]_q [n+1]_q
    for n in range(3, 7):
        assert eigenvalue_formula(P(n - 1, 1), P(1, 1)) \
            == qint(n - 2) * qint(n + 1)


def test_eigenvalue_rejects_non_strips():
    with pytest.raises(NotAHorizontalStrip):
        eigenvalue_formula(P(2, 2), P(1,))


def test_specific_table_rows():
    # n = 4, strip (2,1,1)/(2,1): eigenvalue q + 1
    assert eigenvalue_formula(P(2, 1, 1), P(2, 1)) == qint(2)
    # n = 4, strip (2,1,1)/(1,1): q^4 + q^3 + q^2 + 2q + 1
    got = eigenvalue_formula(P(2, 1, 1), P(1, 1))
    assert got == LaurentPoly({4: 1, 3: 1, 2: 1, 1: 2, 0: 1})
    # n = 3, strip (2,1)/(1,1): [1]_q [4]_q
    assert eigenvalue_formula(P(2, 1), P(1, 1)) == qint(1) * qint(4)


def test_spectrum_table_totals():
    import math
    for n in range(1, 6):
        rows = spectrum_table(n)
        assert sum(r.multiplicity for r in rows) == math.factorial(n)
        # zero eigenvalue has total multiplicity d_n
        zero_total = sum(r.multiplicity for r in rows
                         if r.eigenvalue.is_zero())
        assert zero_total == derangement_count(n)


def test_positivity_and_degree_up_to_8():
    for n in range(1, 9):
        assert check_positivity_degree(n)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_r2r_charpoly_regular_oracle(q0):
    for n in range(1, 5):
        assert check_r2r_charpoly(n, q0)


def test_r2r_charpoly_n5():
    assert check_r2r_charpoly(5, Fraction(2))


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3)])
def test_b_charpoly_oracle(q0):
    for n in range(1, 5):
        assert check_b_charpoly(n, q0)


def trace_moved(monkeypatch, k):
    """spectra._regular_witness with 1 added to the trace of op^k, the
    shared list left intact: the annihilation holds and tr(op^j) is right
    for j < k, so a certificate fails at the k-th power trace."""
    original = spectra._regular_witness

    def moved(module, op, roots):
        annihilated, traces = original(module, op, roots)
        traces = list(traces)
        traces[k] += 1
        return annihilated, traces

    monkeypatch.setattr(spectra, "_regular_witness", moved)


def formula_power_sum(factored, q0, k, scale=1):
    """sum_E m_E (E / scale)^k over the formula spectrum at q0."""
    return sum(m * (e / scale) ** k
               for e, m in spectra.spectrum_at(factored, q0).items())


def test_charpoly_failures_name_operator_and_q(monkeypatch):
    q0 = Fraction(7, 5)
    trace_moved(monkeypatch, 1)
    report = {r.check_id: r for r in run_suite(3, [q0])}
    norm = qint(3).eval(q0) ** 2
    r2r_sum = formula_power_sum(spectra.r2r_charpoly_factored(3), q0, 1)
    b_sum = formula_power_sum(spectra.b_charpoly_factored(3), q0, 1)
    walk_sum = formula_power_sum(spectra.r2r_charpoly_factored(3), q0, 1,
                                 norm)
    expect = {"r2r-charpoly[q=7/5,regular]": ("r2r", r2r_sum, 1),
              "b-charpoly[q=7/5,regular]": ("b2r", b_sum, 1),
              "diagonalizable[q=7/5]": ("r2r", r2r_sum, 1),
              "walk-spectrum[q=7/5]": ("the Mallows walk", walk_sum, norm)}
    assert {k for k, r in report.items() if not r.passed} == set(expect)
    for check_id, (name, want, scale) in expect.items():
        assert report[check_id].detail == (
            f"CheckFailed: tr(({name})^1) at q0 = 7/5 is "
            f"{want + Fraction(1) / scale}, not the formula's sum of m_E E^1 = {want}")


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5), Fraction(1),
                                Fraction(1, 2), Fraction(-3, 2)])
def test_regular_trace_is_the_diagonal_sum_of_built_rows(q0):
    # tr_reg(T_w) from T_1 . T_w and the Casimir form, against the diagonal
    # of T_w's built rows on W^(1^n), for every w; tr_reg(1) = n!
    for n in range(1, 5):
        reg = word_module(P(*(1,) * n), q0)
        t1 = reg.basis_vector(reg.basis[0])
        assert spectra.regular_trace(t1, n, q0) == math.factorial(n)
        for w in all_permutations(n):
            elem = HeckeElement.t_perm(w)
            d, rows = reg._built(elem)
            diagonal = Fraction(sum(dict(row).get(r, 0)
                                    for r, row in enumerate(rows)), d)
            assert spectra.regular_trace(reg.apply_hecke(t1, elem), n, q0) \
                == diagonal, (n, w)


def test_regular_trace_form_requires_the_trace_of_one(monkeypatch):
    # with the unequal-letter cases of the word rule swapped, the basis word
    # of w is no longer T_1 . T_w, and the Casimir form misreads z
    clear_module_cache()
    monkeypatch.setattr(seminormal, "word_gen_rows", swapped_word_gen_rows)
    with pytest.raises(CheckFailed) as err:
        spectra.regular_trace_form(4, Fraction(2))
    assert str(err.value) == (
        "the regular trace of 1 at n = 4, q0 = 2 is 315/64, not n! = 24")


def _verdicts(n, q0, moved):
    """(certificate, char poly oracle) verdicts for R_n, B_n and B*_n at
    q0, each against the formula spectrum, or against it with one unit of
    multiplicity moved from its first value to its last."""
    out = []
    for op, factored in ((r2r(n), spectra.r2r_charpoly_factored(n)),
                         (b2r(n), spectra.b_charpoly_factored(n)),
                         (r2b(n), spectra.b_charpoly_factored(n))):
        mults = dict(spectra.spectrum_at(factored, q0))
        if moved:
            first, *_, last = mults
            mults[first] -= 1
            mults[last] += 1
        try:
            spectra.certify_spectrum(word_module(P(*(1,) * n), q0), op,
                                     mults, "op")
            certified = True
        except CheckFailed:
            certified = False
        oracle = spectra.bruteforce_charpoly(op, q0) == \
            linalg.poly_from_roots(mults.items())
        out.append((certified, oracle))
    return out


@pytest.mark.parametrize("moved", [False, True])
@pytest.mark.parametrize("q0, top", [
    (Fraction(2), 5), (Fraction(3), 5), (Fraction(1, 2), 5), (Fraction(1), 5),
    (Fraction(7, 5), 4), (Fraction(9973, 9967), 4)])
def test_certificate_agrees_with_the_char_poly_oracle(q0, top, moved):
    # the n = 5 char polys at 7/5 and 9973/9967 take about 30 s; that
    # agreement is recorded in CHANGES.md, not run here
    for n in range(2, top + 1):
        for certified, oracle in _verdicts(n, q0, moved):
            assert certified == oracle == (not moved), (n, q0)


def test_regular_route_runs_no_char_poly(monkeypatch, capsys):
    def refused(matrix):
        raise AssertionError("linalg.charpoly called")

    monkeypatch.setattr(linalg, "charpoly", refused)
    assert all(r.passed for r in run_suite(4, Q_VALUES))
    main(["verify", "--n", "5", "--q", "2"])  # exits 1 if a check fails
    assert json.loads(capsys.readouterr().out)["all_passed"] is True


def test_b_charpoly_exponents_sum():
    import math
    for n in range(1, 7):
        assert sum(m for _, m in spectra.b_charpoly_factored(n)) \
            == math.factorial(n)


def test_b_and_bstar_share_charpoly():
    q0 = Fraction(2)
    for n in range(1, 5):
        assert spectra.bruteforce_charpoly(b2r(n), q0) \
            == spectra.bruteforce_charpoly(r2b(n), q0)


def test_spectrum_at_sums_values_that_meet_in_first_appearance_order():
    factored = [(Q, 2), (qint(2), 1), (ONE, 3)]
    assert list(spectra.spectrum_at(factored, 1).items()) == [(1, 5), (2, 1)]
    assert list(spectra.spectrum_at(factored, 2).items()) == [
        (2, 2), (3, 1), (1, 3)]
    # at q0 = 1 distinct eigenvalues of R_4(q) meet (Dieker-Saliola)
    factored = spectra.r2r_charpoly_factored(4)
    at_one = spectra.spectrum_at(factored, 1)
    assert len(at_one) < len(factored) and sum(at_one.values()) == 24
    assert list(at_one) == list(dict.fromkeys(e.eval(1) for e, _ in factored))


def specht_charpoly(op, lam, q0):
    """Char poly of op(q0) on S^lambda in Young's seminormal form, from
    op's built rows on the seminormal module."""
    return linalg.charpoly([_fractions(row, d) for row, d in
                            seminormal_module(lam, q0)._hecke_rows(op)])


def specht_spectrum(lam, q0):
    """{eigenvalue: multiplicity} of R_n(q0) on S^lambda from the strip
    formula, once the char poly of its matrix in the unit basis equals
    prod (y - E_{lambda/mu}(q0))^(d^mu)."""
    out = spectra.spectrum_at([(eigenvalue_formula(lam, mu), d_mu(mu))
                               for mu in horizontal_strips(lam) if d_mu(mu)],
                              q0)
    assert specht_charpoly(r2r(lam.size), lam, q0) == \
        linalg.poly_from_roots(out.items()), (lam, q0)
    return out


def test_specht_spectrum():
    got = specht_spectrum(P(2, 1), Fraction(2))
    assert got == {Fraction(0): 1, Fraction(15): 1}
    got = specht_spectrum(P(1, 1, 1), Fraction(2))
    assert got == {Fraction(1): 1}
    # the per-irreducible char polys, an oracle independent of the
    # certificates on the regular representation: R_n on every S^lambda,
    # and for B_n and B*_n the product over lambda of (char poly on
    # S^lambda)^(f^lambda) against b_charpoly_factored
    for q0 in (Fraction(2), Fraction(7, 5)):
        for n in range(2, 6):
            for lam in partitions_of(n):
                specht_spectrum(lam, q0)
            want = linalg.poly_from_roots(spectra.spectrum_at(
                spectra.b_charpoly_factored(n), q0).items())
            for op in (b2r(n), r2b(n)):
                product = [Fraction(1)]
                for lam in partitions_of(n):
                    factor = specht_charpoly(op, lam, q0)
                    for _ in range(f_lambda(lam)):
                        product = linalg.poly_mul(product, factor)
                assert product == want, (op, q0)


def test_kernel_dimensions_match_d_mu():
    for n in range(0, 6):
        for lam in partitions_of(n):
            _, vectors = kernel_basis(lam, Fraction(2))
            assert len(vectors) == d_mu(lam), lam


def test_kernel_vector_off_the_word_module_names_shape_q_and_index(
        monkeypatch):
    # one Dipper-James pair rescaled: the coefficient of w_(t s_i) doubled
    # where t s_i is below t in dominance and halved where it is not.  The
    # rows are a conjugate module, so R still has a kernel on them, but its
    # kernel vector no longer combines the units into one on W^(2,1)
    original = seminormal.dipper_james_action

    def rescaled(t, i, q0):
        out = original(t, i, q0)
        if len(out) == 2:
            other = t.apply_gen_by_value(i)
            out[other] *= 2 if other.dominance_leq(t) else Fraction(1, 2)
        return out

    clear_module_cache()
    monkeypatch.setattr(seminormal, "dipper_james_action", rescaled)
    with pytest.raises(CheckFailed) as err:
        kernel_basis(P(2, 1), Fraction(7, 5))
    assert str(err.value).startswith(
        "kernel vector 0 of R_3 on S^(2,1) at q0 = 7/5 is not killed on "
        "W^(2,1), first nonzero index ")


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3)])
def test_eigenbasis_all_shapes(q0):
    for n in range(0, 6):
        assert check_eigenbasis(n, q0)


def test_eigenbasis_records_carry_strip_data():
    records = build_eigenbasis(P(2, 1), Fraction(2))
    strips = {(rec.lam.parts, rec.mu.parts) for rec in records}
    assert strips == {((2, 1), (2, 1)), ((2, 1), (1, 1))}
    for rec in records:
        assert rec.eigenvalue_at_q0 \
            == eigenvalue_formula(rec.lam, rec.mu).eval(2)


def test_one_step_recursion():
    for n in range(2, 5):
        assert check_one_step_recursion(n, Fraction(2))


def test_straightening_scalars():
    for n in range(1, 5):
        assert check_straightening(n, Fraction(2))


def test_straightening_scalar_values():
    out = spectra.straightening_scalars(P(2, 1, 1), P(1, 1), Fraction(2))
    t_max = superstandard(SkewShape(P(2, 1, 1), P(1, 1)))
    assert out[t_max] == 1
    other = next(t for t in out if t != t_max)
    assert out[other] == Fraction(15, 7)


def test_strip_vanishing():
    for n in range(1, 6):
        assert check_strip_vanishing(n, Fraction(2))


def test_diagonalizable():
    # the ID stays at every n, beside r2r-charpoly, whose check it runs
    for n in range(1, 5):
        report = {r.check_id: r.passed for r in run_suite(n, [Fraction(2)])}
        assert report["diagonalizable[q=2]"] is True
        assert report["r2r-charpoly[q=2,regular]"] is True


def test_eigenbasis_requires_positive_q():
    with pytest.raises(ValueError):
        build_eigenbasis(P(2, 1), Fraction(-2, 3))


Q_VALUES = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(7, 5)]


def rank_check_diagonalizable(n, q0):
    """Diagonalizability as check_r2r_charpoly's certificate proves it, by
    ranks as it was checked before it moved onto T_1: for each distinct
    formula eigenvalue E = a/b at q0, the geometric multiplicity
    n! - rank(b dM - a d I), dM / d the regular matrix of R_n, equals the
    formula's.  The oracle for its verdicts."""
    rows = list(word_module(P(*(1,) * n), q0)._hecke_rows(r2r(n)))
    dm, d = [row for row, _ in rows], rows[0][1]
    for value, mult in spectra.spectrum_at(spectra.r2r_charpoly_factored(n),
                                           q0).items():
        a, b = value.numerator, value.denominator
        shifted = [[b * x - (a * d if i == j else 0)
                    for j, x in enumerate(row)] for i, row in enumerate(dm)]
        if len(dm) - linalg.rank(shifted) != mult:
            raise CheckFailed(f"eigenvalue {value} of r2r at q0 = {q0} has "
                              f"geometric multiplicity "
                              f"{len(dm) - linalg.rank(shifted)}, algebraic "
                              f"multiplicity {mult}")
    return True


def _verdict(check, n, q0):
    try:
        return check(n, q0)
    except CheckFailed:
        return False


def _entry_added(original):
    """HeckeModule._built with 1 added to entry (0, 1) of d R_n on the
    regular module W^(1^n), n >= 2: R_n(q0) perturbed off its spectrum."""
    def built(self, elem):
        d, rows = original(self, elem)
        if elem == r2r(self.n) and self.dim == len(all_permutations(self.n)):
            row = dict(rows[0])
            row[1] = row.get(1, 0) + 1
            rows = [tuple(row.items())] + list(rows[1:])
        return d, rows
    return built


def _jordan_block(original):
    """HeckeModule._built with x y added to R_n on the regular module
    W^(1^n), n >= 3: x a right and y a left eigenvector of R_n(q0) for its
    first eigenvalue of multiplicity > 1, with y x = 0.  x y is nilpotent
    and R_n(q0) + x y keeps the char poly, but has a Jordan block there, so
    only the product on T_1 sees it."""
    def built(self, elem):
        d, rows = original(self, elem)
        if elem != r2r(self.n) or self.dim != len(all_permutations(self.n)):
            return d, rows
        mat = [[Fraction(x, d) for x in row]
               for row in linalg._dense(rows, self.dim)]
        value = next(e for e, m in spectra.spectrum_at(
            spectra.r2r_charpoly_factored(self.n), self.q0).items() if m > 1)
        shifted = [[x - value * (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        x = _fractions(*linalg.kernel(shifted)[0])
        y1, y2 = (_fractions(*y) for y in linalg.left_kernel(shifted)[:2])
        c1, c2 = (sum(a * b for a, b in zip(y, x)) for y in (y1, y2))
        y = y1 if c1 == 0 else [b - c2 / c1 * a for a, b in zip(y1, y2)]
        return linalg._int_rows([[(j, e + x[i] * y[j]) for j, e in
                                  enumerate(row)] for i, row in enumerate(mat)])
    return built


@pytest.mark.parametrize("perturb, smallest", [(None, 1), (_entry_added, 2),
                                               (_jordan_block, 3)])
@pytest.mark.parametrize("q0", Q_VALUES)
def test_diagonalizable_agrees_with_rank_oracle(monkeypatch, q0, perturb,
                                                smallest):
    perturbed = perturb is not None
    if perturbed:
        monkeypatch.setattr(HeckeModule, "_built",
                            perturb(HeckeModule._built))
    for n in range(smallest, 5):
        clear_module_cache()
        want = _verdict(rank_check_diagonalizable, n, q0)
        assert want is not perturbed, (n, q0)
        clear_module_cache()
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rank", None)  # it makes no rank call
            assert _verdict(check_r2r_charpoly, n, q0) is want, (n, q0)


def test_diagonalizable_failure_names_q_and_first_nonzero_index(monkeypatch):
    q0, original = Fraction(7, 5), HeckeModule.apply_shifted_product

    def dropped(self, v, elem, roots):  # the first distinct value left out
        return original(self, v, elem, list(roots)[1:])

    monkeypatch.setattr(HeckeModule, "apply_shifted_product", dropped)
    report = {r.check_id: r for r in run_suite(3, [q0])}
    # every regular-route certificate reads the same annihilation
    assert [k for k, r in report.items() if not r.passed] == [
        "r2r-charpoly[q=7/5,regular]", "b-charpoly[q=7/5,regular]",
        "diagonalizable[q=7/5]", "walk-spectrum[q=7/5]"]
    values = list(spectra.spectrum_at(spectra.r2r_charpoly_factored(3), q0))
    mat = regular_matrix(r2r(3), q0)
    v = [Fraction(int(i == 0)) for i in range(6)]  # T_1
    for value in values[1:]:
        v = [x - value * y for x, y in zip(linalg.vec_mat(v, mat), v)]
    first = next(i for i, x in enumerate(v) if x)
    assert report["diagonalizable[q=7/5]"].detail == (
        f"CheckFailed: T_1 . prod (r2r - E) = 0 over the {len(values)} "
        f"distinct formula eigenvalues E fails at q0 = 7/5, first nonzero "
        f"index {first}")


def test_diagonalizable_multiplicity_failure_names_q_and_coefficient(
        monkeypatch):
    q0 = Fraction(7, 5)
    trace_moved(monkeypatch, 2)  # tr(R_3^2) moved by 1
    want = formula_power_sum(spectra.r2r_charpoly_factored(3), q0, 2)
    with pytest.raises(CheckFailed) as err:
        check_r2r_charpoly(3, q0)
    assert str(err.value) == (
        f"tr((r2r)^2) at q0 = 7/5 is {want + 1}, not the formula's sum of "
        f"m_E E^2 = {want}")


def test_one_step_recursion_failure_names_shapes_tableau_and_q(monkeypatch):
    lam, original = P(2, 1), WordModuleRep.apply_p_lambda

    def wrong(self, v, shape=None):  # only W^(2,1): the R_2 basis is intact;
        num, den = original(self, v, shape)  # 1 added at index 1
        if self.lam == lam:
            num[1] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_p_lambda", wrong)
    with pytest.raises(CheckFailed) as err:
        check_one_step_recursion(3, Fraction(7, 5))
    t = superstandard(SkewShape(lam, P(1, 1)))
    assert str(err.value) == (
        f"u Phi B_3 p_lambda is not an R_3-eigenvector with eigenvalue "
        f"888/125 for lambda = (2,1), lambda' = (1,1), u = eigenvector 0 of "
        f"strip (1,1)/(1,1), t = {t} at q0 = 7/5, first difference at index 0")


def test_strip_vanishing_failure_names_strip_tableaux_and_q(monkeypatch):
    lam, original = P(1, 1, 1), spectra.apply_c_op

    def wrong(rep, v, j):  # u Phi_t C_1 off the kernel of p_(1,1,1), by 1
        num, den = original(rep, v, j)  # at index 0
        if rep.lam == lam and j == 1:
            num[0] += den
        return num, den

    monkeypatch.setattr(spectra, "apply_c_op", wrong)
    with pytest.raises(CheckFailed) as err:
        check_strip_vanishing(3, Fraction(7, 5))
    t = enumerate_syt(SkewShape(lam, P(1)))[0]
    s = enumerate_syt(P(1))[0]
    assert str(err.value) == (
        f"w_s Phi_t C_1 p_lambda = 0 fails for lambda = (1,1,1), mu = (1), "
        f"t = {t}, s = {s} at q0 = 7/5, first nonzero index 0")


def test_eigenbasis_failure_names_strip_vector_and_q(monkeypatch):
    lam, original = P(2, 1), WordModuleRep.apply_p_lambda

    def wrong(self, v, shape=None):  # only W^(2,1) leaves its eigenspaces,
        num, den = original(self, v, shape)  # by 1 at index 1
        if self.lam == lam:
            num[1] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_p_lambda", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["eigenbasis[q=7/5]"].detail
    assert detail.startswith("CheckFailed: not an R_3-eigenvector")
    for field in ("lambda = (2,1), mu = (2,1), kernel vector 0 of S^mu",
                  "q0 = 7/5", "first difference at index "):
        assert field in detail


def test_eigenbasis_failure_names_the_kernel_dimension(monkeypatch):
    original = spectra.kernel_basis.__wrapped__

    def short(lam, q0):  # S^(2,1) loses its kernel vector
        rep, vectors = original(lam, q0)
        return rep, (vectors[1:] if lam == P(2, 1) else vectors)

    for lam in partitions_of(3):  # the eigenbases are built and shared
        build_eigenbasis(lam, Fraction(2))
    monkeypatch.setattr(spectra, "kernel_basis", short)
    with pytest.raises(CheckFailed) as err:
        check_eigenbasis(3, Fraction(2))
    assert str(err.value) == (
        "ker R_3 on S^(2,1) at q0 = 2 has dimension 0, not d^lambda = 1")


def test_straightening_failure_names_shapes_tableaux_and_q(monkeypatch):
    lam = P(2, 1)
    bad = next(t for t in enumerate_syt(lam) if t != superstandard(lam))
    original = WordModuleRep.apply_idempotent

    def wrong(self, v, t):  # p_t moved for one tableau of W^(2,1) only,
        num, den = original(self, v, t)  # by 1 at index 0
        if self.lam == lam and t == bad:
            num = num[:]  # a copy: the image is shared
            num[0] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_idempotent", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["straightening[q=7/5]"].detail
    assert detail.startswith(
        "CheckFailed: w_t(s) C_0 is nonzero over a zero reference")
    for field in (f"lambda = (2,1), mu = (), t = {bad}, s = ",
                  "q0 = 7/5", "first nonzero index 0"):
        assert field in detail


def test_unstable_unit_span_names_shape_q_and_kernel_vector(monkeypatch):
    # one moved p_t leaves the units of S^(2,1) outside a submodule: the
    # kernel vector of R_3 on the seminormal rows combines them into a
    # vector that R_3 does not kill, so the eigenbasis cannot be formed
    lam = P(2, 1)
    bad = next(t for t in enumerate_syt(lam) if t != superstandard(lam))
    original = WordModuleRep.apply_idempotent

    def wrong(self, v, t):  # 1 added at index 0
        num, den = original(self, v, t)
        if self.lam == lam and t == bad:
            num = num[:]  # a copy: the image is shared
            num[0] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_idempotent", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["eigenbasis[q=7/5]"].detail
    assert detail == ("CheckFailed: kernel vector 0 of R_3 on S^(2,1) at "
                      "q0 = 7/5 is not killed on W^(2,1), first nonzero "
                      "index 0")


@pytest.mark.parametrize("broken", ["positivity", "degree"])
def test_positivity_degree_failure_names_strip_and_property(monkeypatch,
                                                            broken):
    lam, mu = P(2, 1), P(1)
    if broken == "positivity":
        original = spectra.eigenvalue_formula

        def wrong(a, b):  # -E for the strip (2,1)/(1) only
            value = original(a, b)
            return -value if (a, b) == (lam, mu) else value

        monkeypatch.setattr(spectra, "eigenvalue_formula", wrong)
        what = "positivity fails"
        value = -eigenvalue_formula(lam, mu)
        tail = ("has a negative exponent or a coefficient that is not a "
                "nonnegative integer")
    else:
        original = spectra.degree_check
        monkeypatch.setattr(spectra, "degree_check", lambda a, b: (
            (a, b) != (lam, mu) and original(a, b)))
        what = "the degree check fails"
        value = eigenvalue_formula(lam, mu)
        tail = "is not of degree n + C - 1"
    report = {r.check_id: r for r in run_suite(3, [Fraction(2)])}
    assert report["positivity-degree"].detail.startswith(
        f"CheckFailed: {what} for lambda = (2,1), mu = (1): E_lambda/mu = "
        f"{value} {tail}")
