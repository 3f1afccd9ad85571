"""End-to-end acceptance suite.

Every check here is exact: structural equality of polynomials, rationals,
and matrices.  The reference tables are hard-coded literals, transcribed
independently of the code that generates them.
"""

import math
import time
from fractions import Fraction

import pytest

from qshuffle import spectra
from qshuffle.flags import FlagSpace, flag_count, q_int_at, verify_commutation, \
    x_spectrum, x_spectrum_check
from qshuffle.hecke import recursion_check
from qshuffle.qpoly import qint
from qshuffle.tableaux import Partition
from qshuffle.verify import (check_b_charpoly, check_c_factorization,
                             check_eigenbasis, check_idempotents,
                             check_mallows_stationarity,
                             check_positivity_degree, check_r2r_charpoly,
                             check_second_eigenvalue, check_seminormal_action,
                             check_straightening, check_strip_vanishing,
                             check_walk_spectrum, check_word_module_relations)


# -- criterion 1: reference spectrum tables ---------------------------
# (lambda, mu, eigenvalue string, mult in S^lambda, f^lambda, mult in H_n)

TABLES = {
    2: [
        ((2,), (), "q^2 + 2*q + 1", 1, 1, 1),
        ((1, 1), (1, 1), "0", 1, 1, 1),
    ],
    3: [
        ((3,), (), "q^4 + 2*q^3 + 3*q^2 + 2*q + 1", 1, 1, 1),
        ((2, 1), (2, 1), "0", 1, 2, 2),
        ((2, 1), (1, 1), "q^3 + q^2 + q + 1", 1, 2, 2),
        ((1, 1, 1), (1, 1), "1", 1, 1, 1),
    ],
    4: [
        ((4,), (), "q^6 + 2*q^5 + 3*q^4 + 4*q^3 + 3*q^2 + 2*q + 1", 1, 1, 1),
        ((3, 1), (3, 1), "0", 1, 3, 3),
        ((3, 1), (2, 1), "q^5 + q^4 + q^3 + q^2 + q + 1", 1, 3, 3),
        ((3, 1), (1, 1), "q^5 + 2*q^4 + 2*q^3 + 2*q^2 + 2*q + 1", 1, 3, 3),
        ((2, 2), (2, 2), "0", 1, 2, 2),
        ((2, 2), (2, 1), "q^3 + q^2 + q + 1", 1, 2, 2),
        ((2, 1, 1), (2, 1, 1), "0", 1, 3, 3),
        ((2, 1, 1), (2, 1), "q + 1", 1, 3, 3),
        ((2, 1, 1), (1, 1), "q^4 + q^3 + q^2 + 2*q + 1", 1, 3, 3),
        ((1, 1, 1, 1), (1, 1, 1, 1), "0", 1, 1, 1),
    ],
    5: [
        ((5,), (),
         "q^8 + 2*q^7 + 3*q^6 + 4*q^5 + 5*q^4 + 4*q^3 + 3*q^2 + 2*q + 1",
         1, 1, 1),
        ((4, 1), (4, 1), "0", 1, 4, 4),
        ((4, 1), (3, 1),
         "q^7 + q^6 + q^5 + q^4 + q^3 + q^2 + q + 1", 1, 4, 4),
        ((4, 1), (2, 1),
         "q^7 + 2*q^6 + 2*q^5 + 2*q^4 + 2*q^3 + 2*q^2 + 2*q + 1", 1, 4, 4),
        ((4, 1), (1, 1),
         "q^7 + 2*q^6 + 3*q^5 + 3*q^4 + 3*q^3 + 3*q^2 + 2*q + 1", 1, 4, 4),
        ((3, 2), (3, 2), "0", 2, 5, 10),
        ((3, 2), (3, 1), "q^4 + q^3 + q^2 + q + 1", 1, 5, 5),
        ((3, 2), (2, 2),
         "q^6 + q^5 + q^4 + q^3 + q^2 + q + 1", 1, 5, 5),
        ((3, 2), (2, 1),
         "q^6 + q^5 + 2*q^4 + 2*q^3 + 2*q^2 + 2*q + 1", 1, 5, 5),
        ((3, 1, 1), (3, 1, 1), "0", 2, 6, 12),
        ((3, 1, 1), (3, 1), "q^2 + q + 1", 1, 6, 6),
        ((3, 1, 1), (2, 1, 1),
         "q^6 + q^5 + q^4 + q^3 + q^2 + q + 1", 1, 6, 6),
        ((3, 1, 1), (2, 1),
         "q^6 + q^5 + q^4 + q^3 + 2*q^2 + 2*q + 1", 1, 6, 6),
        ((3, 1, 1), (1, 1),
         "q^6 + 2*q^5 + 2*q^4 + 2*q^3 + 3*q^2 + 2*q + 1", 1, 6, 6),
        ((2, 2, 1), (2, 2, 1), "0", 2, 5, 10),
        ((2, 2, 1), (2, 2), "q^2 + q + 1", 1, 5, 5),
        ((2, 2, 1), (2, 1, 1), "q^4 + q^3 + q^2 + q + 1", 1, 5, 5),
        ((2, 2, 1), (2, 1), "q^4 + q^3 + 2*q^2 + 2*q + 1", 1, 5, 5),
        ((2, 1, 1, 1), (2, 1, 1, 1), "0", 2, 4, 8),
        ((2, 1, 1, 1), (2, 1, 1), "q + 1", 1, 4, 4),
        ((2, 1, 1, 1), (1, 1, 1, 1),
         "q^5 + q^4 + q^3 + q^2 + q + 1", 1, 4, 4),
        ((1, 1, 1, 1, 1), (1, 1, 1, 1), "1", 1, 1, 1),
    ],
}


def test_criterion_1_appendix_tables():
    start = time.perf_counter()
    for n, expected in TABLES.items():
        rows = [r for r in spectra.spectrum_table(n) if r.multiplicity]
        got = [(r.lam.parts, r.mu.parts, str(r.eigenvalue), r.d_mu,
                r.f_lambda, r.multiplicity) for r in rows]
        assert got == expected, f"n={n}"
    # spot-checked closed forms
    assert spectra.eigenvalue_formula(Partition((3,)), Partition(())) \
        == qint(3) * qint(3)
    assert spectra.eigenvalue_formula(Partition((2, 1)), Partition((1, 1))) \
        == qint(1) * qint(4)
    assert spectra.eigenvalue_formula(Partition((4, 1)), Partition((1, 1))) \
        == qint(3) * qint(6)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_criterion_2_r2r_charpoly_oracle(q0):
    for n in range(1, 5):
        assert check_r2r_charpoly(n, q0)


def test_criterion_2_r2r_charpoly_n5():
    assert check_r2r_charpoly(5, Fraction(2))


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3)])
def test_criterion_3_b_charpoly_oracle(q0):
    for n in range(1, 5):
        assert check_b_charpoly(n, q0)
        assert sum(m for _, m in spectra.b_charpoly_factored(n)) \
            == math.factorial(n)


def test_criterion_4_recursion():
    for n in range(2, 6):
        assert recursion_check(n)


def test_criterion_5_c_factorization():
    for n in range(1, 6):
        assert check_c_factorization(n)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(1, 2),
                                Fraction(7, 5)])
def test_criterion_6_seminormal_machinery(q0):
    for n in range(1, 6):
        assert check_word_module_relations(n, q0)
        assert check_seminormal_action(n, q0)
        assert check_idempotents(n, q0)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3)])
def test_criterion_7_eigenbasis(q0):
    for n in range(0, 6):
        assert check_eigenbasis(n, q0)


def test_criterion_8_straightening_and_vanishing():
    for n in range(1, 5):
        assert check_straightening(n, Fraction(2))
    for n in range(1, 6):
        assert check_strip_vanishing(n, Fraction(2))


@pytest.mark.parametrize("q0", [1, 2, 3])
def test_criterion_9_mallows(q0):
    for n in range(1, 6):
        assert check_mallows_stationarity(n, q0)
    for n in range(1, 5):
        assert check_walk_spectrum(n, q0)
    for n in range(3, 6):
        assert check_second_eigenvalue(n, q0)


def test_criterion_10_flags():
    start = time.perf_counter()
    for n, p in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        space = FlagSpace(n, p)
        assert space.size == flag_count(n, p)
        assert verify_commutation(space)
        assert x_spectrum_check(space)
        mults = x_spectrum(space)
        allowed = {q_int_at(n - j, p) for j in range(n + 1) if j != 1}
        assert set(mults) <= allowed
        assert q_int_at(n - 1, p) not in mults
    assert time.perf_counter() - start < 60.0


def test_criterion_11_positivity_and_degree():
    start = time.perf_counter()
    for n in range(1, 9):
        assert check_positivity_degree(n)
    assert time.perf_counter() - start < 5.0
