import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.hecke import HeckeElement
from qshuffle.qpoly import LaurentPoly, ZeroEvaluationPoint, qint, ONE, Q, ZERO


coeffs = st.integers(-10 ** 6, 10 ** 6)
polys = st.dictionaries(st.integers(-12, 12), coeffs, max_size=6).map(
    LaurentPoly)
points = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 15)).filter(
    lambda x: x != 0)


def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: 0, 1: 2})
    assert p.terms == {1: 2}
    assert (p - p).is_zero()
    assert p - p == ZERO


def test_constants():
    assert str(ONE) == "1"
    assert str(Q) == "q"
    assert Q * Q == LaurentPoly.q_power(2)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(polys, st.integers(0, 4))
def test_power_is_repeated_product(a, k):
    expected = ONE
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected


@given(polys, polys, points)
def test_eval_is_ring_homomorphism(a, b, q0):
    assert (a + b).eval(q0) == a.eval(q0) + b.eval(q0)
    assert (a * b).eval(q0) == a.eval(q0) * b.eval(q0)


def test_eval_at_zero_rejected_for_negative_exponents():
    assert LaurentPoly({2: 1}).eval(0) == 0
    with pytest.raises(ZeroEvaluationPoint):
        LaurentPoly({-1: 1}).eval(0)


def eval_oracle(p, q0):
    """The value of p at q0 as a Fraction sum, term by term."""
    return sum((c * Fraction(q0) ** e for e, c in p.terms.items()),
               Fraction(0))


any_points = st.one_of(st.integers(-40, 40),
                       st.builds(Fraction, st.integers(-40, 40),
                                 st.integers(1, 15)))


@given(polys, any_points)
def test_integer_eval_matches_fraction_oracle(p, q0):
    # negative exponents, negative and non-integral q0, the zero
    # polynomial, and q0 = 0
    if q0 == 0 and p.terms and min(p.terms) < 0:
        with pytest.raises(ZeroEvaluationPoint):
            p.eval(q0)
        return
    value = p.eval(q0)
    assert type(value) is Fraction
    assert value == eval_oracle(p, q0)


def test_eval_edge_cases():
    assert ZERO.eval(0) == ZERO.eval(Fraction(-7, 3)) == 0
    assert type(ZERO.eval(2)) is Fraction
    assert LaurentPoly({0: 5, 3: 1}).eval(0) == 5
    assert LaurentPoly({-2: 4, 1: -3}).eval(Fraction(-2, 3)) \
        == Fraction(4 * 9, 4) - 3 * Fraction(-2, 3)
    assert qint(-3).eval(Fraction(1, 2)) == -(2 + 4 + 8)
    with pytest.raises(ZeroEvaluationPoint):
        LaurentPoly({-3: 2, 0: 1}).eval(Fraction(0))


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_qint_addition_rule(m, n):
    # [m + n]_q = [m]_q + q^m [n]_q
    assert qint(m + n) == qint(m) + qint(n).shift(m)


def test_qint_values():
    assert qint(0) == ZERO
    assert qint(1) == ONE
    assert str(qint(3)) == "q^2 + q + 1"
    assert qint(-2) == -(LaurentPoly.q_power(-1) + LaurentPoly.q_power(-2))
    assert qint(4).eval(1) == 4
    assert qint(4).eval(2) == 15


@given(polys)
def test_json_roundtrip(a):
    # to_json loses nothing: the polynomial is rebuilt from its terms
    data = json.loads(json.dumps(a.to_json()))
    assert LaurentPoly({e: int(c) for e, c in data["terms"]}) == a


def test_json_format():
    p = qint(3) + LaurentPoly({5: -7})
    assert p.to_json() == {"terms": [[0, "1"], [1, "1"], [2, "1"], [5, "-7"]]}


def test_str_format():
    p = LaurentPoly({5: 1, 3: 1, 1: 2, 0: 1})
    assert str(p) == "q^5 + q^3 + 2*q + 1"
    assert str(ZERO) == "0"


def test_degree_and_positivity():
    p = qint(3).shift(-1)
    assert p.degree() == 1
    assert not p.is_nonneg_integral()
    assert qint(5).is_nonneg_integral()
    assert not (qint(2) - qint(3)).is_nonneg_integral()


def test_non_int_coefficients_are_refused():
    # coefficients live in Z: a Fraction, integral or not, never enters,
    # and neither does an exponent that is not an int
    for build in (lambda: LaurentPoly({1: Fraction(1, 2)}),
                  lambda: LaurentPoly({0: Fraction(3)}),
                  lambda: LaurentPoly.const(Fraction(3)),
                  lambda: Q.scale(Fraction(1, 2)),
                  lambda: HeckeElement.one(2) * Fraction(1, 2),
                  lambda: LaurentPoly({1.5: 1})):
        with pytest.raises(TypeError, match="needs an int coefficient"):
            build()


@given(polys, polys, st.integers(-50, 50))
def test_arithmetic_keeps_int_coefficients(a, b, k):
    for p in (a + b, a - b, a * b, a.scale(k), a.shift(k), -a):
        assert all(type(c) is int and c for c in p.terms.values())


def test_nonneg_in_q_minus_1():
    # q - 1 and (q - 1)^2 + 1 = q^2 - 2q + 2 lie in N[q - 1]; q - 2, q^-1
    # and q^2 - 3q + 3 = (q - 1)^2 - (q - 1) + 1 do not, though the last is
    # positive at every q >= 1: the test is sufficient, not necessary
    m1 = Q - ONE
    for p in (ZERO, ONE, Q, m1, m1 ** 2 + ONE, qint(4) * m1 ** 3):
        assert p.is_nonneg_in_q_minus_1(), p
    for p in (Q - 2, Q.shift(-2), m1 ** 2 - m1 + ONE, -ONE):
        assert not p.is_nonneg_in_q_minus_1(), p


@settings(max_examples=50)
@given(st.dictionaries(st.integers(0, 6), st.integers(0, 5), max_size=4))
def test_every_polynomial_in_q_minus_1_is_accepted(terms):
    # a polynomial in q - 1 with coefficients in N, expanded in q
    p = sum((((Q - ONE) ** e).scale(c) for e, c in terms.items()), ZERO)
    assert p.is_nonneg_in_q_minus_1()
