"""Exact Laurent polynomials in q with integer coefficients: Z[q, q^-1].

Everything downstream (shuffle operators, eigenvalue formulas, contents)
is built from these; no floating point is used anywhere.  Every structure
constant of H_n(q) lies in Z[q, q^-1], and so does every eigenvalue of
R_n(q), so each coefficient is an int: the constructor refuses any other
(a Fraction included, integral or not), and sums, products and scalings
stay in the ring by themselves.  Only eval leaves it, at a rational q0.
"""

from __future__ import annotations

from fractions import Fraction


class ZeroEvaluationPoint(ValueError):
    """Raised when evaluating a negative power of q at q = 0."""


class LaurentPoly:
    """Sparse Laurent polynomial over Z: mapping exponent -> nonzero int.

    Values are immutable; arithmetic always returns canonical form (no zero
    coefficients stored), so == is structural equality.  The constructor,
    from a dict {int exponent: int}, is where every coefficient enters.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        for exp, coeff in (terms or {}).items():
            if type(exp) is not int or type(coeff) is not int:
                raise TypeError(f"the term {coeff!r} q^{exp!r} needs an int "
                                f"coefficient and an int exponent")
            if coeff:
                clean[exp] = coeff
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(k):
        return LaurentPoly({k: 1})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers of a general LaurentPoly")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c):
        return self * LaurentPoly.const(c)

    def shift(self, k):
        """Multiply by q^k."""
        return _raw({e + k: c for e, c in self.terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max exponent; None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def is_nonneg_integral(self):
        """All coefficients nonnegative and no negative exponents (every
        coefficient is an integer by construction)."""
        return all(e >= 0 and c >= 0 for e, c in self.terms.items())

    def is_nonneg_in_q_minus_1(self):
        """A polynomial in q - 1 with coefficients in N, so >= 0 at every
        q >= 1: p(1 + q) has no negative exponent or coefficient."""
        return all(e >= 0 for e in self.terms) and sum(
            (((ONE + Q) ** e).scale(c) for e, c in self.terms.items()),
            ZERO).is_nonneg_integral()

    def eval(self, q0):
        """Exact value at a rational point q0 = a/b, as a Fraction.

        With lo and hi the least and greatest exponents, the value is
        a^lo b^-hi N for the integer N = sum_e c_e a^(e-lo) b^(hi-e), so
        one Fraction is built at the end."""
        q0 = Fraction(q0)
        if not self.terms:
            return Fraction(0)
        a, b = q0.numerator, q0.denominator
        lo, hi = min(self.terms), max(self.terms)
        if a == 0 and lo < 0:
            raise ZeroEvaluationPoint("negative exponent at q0 = 0")
        total = sum(c * a ** (e - lo) * b ** (hi - e)
                    for e, c in self.terms.items())
        num = a ** max(lo, 0) * b ** max(-hi, 0)
        den = a ** max(-lo, 0) * b ** max(hi, 0)
        return Fraction(total * num, den)

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is int:
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- formatting / serialization -----------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                var = "q" if exp == 1 else f"q^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def to_json(self):
        return {"terms": [[e, str(self.terms[e])] for e in sorted(self.terms)]}


def _coerce(x):
    """x itself if a LaurentPoly, else the constant x, which must be an int."""
    return x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)


def _raw(terms):
    """Build from a dict of nonzero ints without checking it: sums,
    products and shifts of polynomials over Z stay over Z."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    p._hash = None
    return p


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QM1 = Q - ONE  # q - 1, the off-diagonal Hecke coefficient


def qint(m):
    """The q-integer [m]_q.

    [m]_q = 1 + q + ... + q^(m-1) for m > 0, 0 for m = 0, and
    -q^-1 - q^-2 - ... - q^m for m < 0.
    """
    if m > 0:
        return _raw(dict.fromkeys(range(m), 1))
    if m == 0:
        return ZERO
    return _raw(dict.fromkeys(range(m, 0), -1))
