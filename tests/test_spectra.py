from fractions import Fraction

import pytest

from qshuffle import linalg, spectra
from qshuffle.hecke import b2r, r2b, r2r
from qshuffle.qpoly import ONE, Q, LaurentPoly, qint
from qshuffle.spectra import (NotAHorizontalStrip, build_eigenbasis,
                              eigenvalue_formula, kernel_basis, spectrum_table)
from qshuffle.symmetric import derangement_count
from qshuffle.seminormal import WordModuleRep, specht_module
from qshuffle.tableaux import (Partition, SkewShape, d_mu, enumerate_syt,
                               f_lambda, horizontal_strips, partitions_of,
                               superstandard)
from qshuffle.verify import (CheckFailed, check_b_charpoly,
                             check_diagonalizable, check_eigenbasis,
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
    assert got == LaurentPoly({4: Fraction(1), 3: Fraction(1), 2: Fraction(1),
                               1: Fraction(2), 0: Fraction(1)})
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
        assert check_r2r_charpoly(n, q0, "regular")


def test_r2r_charpoly_specht_route_n5():
    assert check_r2r_charpoly(5, Fraction(2), "specht")


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3)])
def test_b_charpoly_oracle(q0):
    for n in range(1, 5):
        assert check_b_charpoly(n, q0, "regular")


def test_charpoly_failures_name_operator_and_q(monkeypatch):
    original = linalg.charpoly

    def wrong(matrix):
        coeffs = original(matrix)
        coeffs[-1] += 1
        return coeffs

    monkeypatch.setattr(linalg, "charpoly", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    expect = {"r2r-charpoly[q=7/5,regular]": ["char poly of r2r at"],
              "b-charpoly[q=7/5,regular]": ["char poly of b2r at"],
              "walk-spectrum[q=7/5]": ["char poly of the Mallows walk at",
                                       "route transition matrix"]}
    for check_id, names in expect.items():
        detail = report[check_id].detail
        assert not report[check_id].passed
        assert detail.startswith("CheckFailed: ")
        for name in names + ["q0 = 7/5", "coefficient index 6"]:
            assert name in detail


def test_specht_charpoly_failure_names_the_shape(monkeypatch):
    original = linalg.charpoly

    def wrong(matrix):  # only S^(2,1) has dimension 2 at n = 3
        coeffs = original(matrix)
        if len(matrix) == 2:
            coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(linalg, "charpoly", wrong)
    for check in (check_r2r_charpoly, check_b_charpoly):
        with pytest.raises(CheckFailed) as err:
            check(3, Fraction(2), "specht")
        message = str(err.value)
        assert " on S^(2,1) at q0 = 2, route specht" in message
        assert "coefficient index 1" in message


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


def specht_spectrum(lam, q0):
    """{eigenvalue: multiplicity} of R_n(q0) on S^lambda from the strip
    formula, once the char poly of its matrix in the unit basis equals
    prod (y - E_{lambda/mu}(q0))^(d^mu)."""
    out = spectra.spectrum_at([(eigenvalue_formula(lam, mu), d_mu(mu))
                               for mu in horizontal_strips(lam) if d_mu(mu)],
                              q0)
    mat = specht_module(lam, q0).hecke_action_matrix(r2r(lam.size))
    assert linalg.charpoly(mat) == linalg.poly_from_roots(out.items())
    return out


def test_specht_spectrum():
    got = specht_spectrum(P(2, 1), Fraction(2))
    assert got == {Fraction(0): 1, Fraction(15): 1}
    got = specht_spectrum(P(1, 1, 1), Fraction(2))
    assert got == {Fraction(1): 1}


def test_kernel_dimensions_match_d_mu():
    for n in range(0, 6):
        for lam in partitions_of(n):
            _, vectors = kernel_basis(lam, Fraction(2))
            assert len(vectors) == d_mu(lam), lam


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
    for n in range(1, 5):
        assert check_diagonalizable(n, Fraction(2))


def test_eigenbasis_requires_positive_q():
    with pytest.raises(ValueError):
        build_eigenbasis(P(2, 1), Fraction(-2, 3))


def test_diagonalizable_failure_names_eigenvalue_and_multiplicities(
        monkeypatch):
    q0, original, calls = Fraction(7, 5), linalg.rank, []

    def wrong(matrix):  # one too many for the first eigenvalue of R_3 only
        rank = original(matrix)
        if len(matrix) == 6:
            calls.append(matrix)
            return rank + (len(calls) == 1)
        return rank

    monkeypatch.setattr(linalg, "rank", wrong)
    report = {r.check_id: r for r in run_suite(3, [q0])}
    assert [k for k, r in report.items() if not r.passed] \
        == ["diagonalizable[q=7/5]"]
    rows = [row for row in spectrum_table(3) if row.multiplicity]
    value = rows[0].eigenvalue.eval(q0)
    algebraic = sum(row.multiplicity for row in rows
                    if row.eigenvalue.eval(q0) == value)
    assert report["diagonalizable[q=7/5]"].detail == (
        f"CheckFailed: eigenvalue {value} of r2r at q0 = 7/5 has geometric "
        f"multiplicity {algebraic - 1} (size - rank), algebraic multiplicity "
        f"{algebraic}")


def test_one_step_recursion_failure_names_shapes_tableau_and_q(monkeypatch):
    lam, original = P(2, 1), WordModuleRep.apply_p_lambda

    def wrong(self, v, shape=None):  # only W^(2,1): the R_2 basis is intact
        out = original(self, v, shape)
        if self.lam == lam:
            out[1] += 1
        return out

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

    def wrong(rep, v, j):  # u Phi_t C_1 off the kernel of p_(1,1,1)
        out = original(rep, v, j)
        if rep.lam == lam and j == 1:
            out[0] += 1
        return out

    monkeypatch.setattr(spectra, "apply_c_op", wrong)
    with pytest.raises(CheckFailed) as err:
        check_strip_vanishing(3, Fraction(7, 5))
    t = enumerate_syt(SkewShape(lam, P(1)))[0]
    s = enumerate_syt(P(1))[0]
    assert str(err.value) == (
        f"w_s Phi_t C_1 p_lambda = 0 fails for lambda = (1,1,1), mu = (1), "
        f"t = {t}, s = {s} at q0 = 7/5, first nonzero index 0")
