import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle.qpoly import LaurentPoly, ZeroEvaluationPoint, qint, ONE, Q, ZERO


coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))
polys = st.dictionaries(st.integers(-6, 6), coeffs, max_size=5).map(LaurentPoly)
points = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)).filter(
    lambda x: x != 0)


def test_canonical_form_drops_zeros():
    p = LaurentPoly({3: Fraction(0), 1: Fraction(2)})
    assert p.terms == {1: Fraction(2)}
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
    assert LaurentPoly({2: Fraction(1)}).eval(0) == 0
    with pytest.raises(ZeroEvaluationPoint):
        LaurentPoly({-1: Fraction(1)}).eval(0)


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
    assert LaurentPoly({e: Fraction(c) for e, c in data["terms"]}) == a


def test_json_format():
    p = qint(3) + LaurentPoly({5: Fraction(1, 2)})
    assert p.to_json() == {"terms": [[0, "1"], [1, "1"], [2, "1"], [5, "1/2"]]}


def test_str_format():
    p = LaurentPoly({5: Fraction(1), 3: Fraction(1), 1: Fraction(2),
                     0: Fraction(1)})
    assert str(p) == "q^5 + q^3 + 2*q + 1"
    assert str(ZERO) == "0"


def test_degree_and_positivity():
    p = qint(3).shift(-1)
    assert p.degree() == 1
    assert not p.is_nonneg_integral()
    assert qint(5).is_nonneg_integral()
    assert not (qint(2) - qint(3)).is_nonneg_integral()
