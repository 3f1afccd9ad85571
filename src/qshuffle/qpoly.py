"""Exact Laurent polynomials in q with rational coefficients.

Everything downstream (shuffle operators, eigenvalue formulas, contents)
is built from these; no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class ZeroEvaluationPoint(ValueError):
    """Raised when evaluating a negative power of q at q = 0."""


class LaurentPoly:
    """Sparse Laurent polynomial: mapping exponent -> nonzero Fraction.

    Values are immutable; arithmetic always returns canonical form
    (no zero coefficients stored), so == is structural equality.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in (terms.items() if isinstance(terms, dict) else terms):
                coeff = Fraction(coeff)
                if coeff != 0:
                    c = clean.get(exp, 0) + coeff
                    if c:
                        clean[int(exp)] = c
                    else:
                        clean.pop(int(exp), None)
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
        return LaurentPoly({0: Fraction(c)})

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
        c = Fraction(c)
        if c == 0:
            return LaurentPoly.zero()
        return _raw({e: coeff * c for e, coeff in self.terms.items()})

    def shift(self, k):
        """Multiply by q^k."""
        return _raw({e + k: c for e, c in self.terms.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Max exponent; None for the zero polynomial."""
        return max(self.terms) if self.terms else None

    def coefficient(self, exp):
        return self.terms.get(exp, Fraction(0))

    def is_nonneg_integral(self):
        """All coefficients nonnegative integers and no negative exponents."""
        return all(e >= 0 and c >= 0 and c.denominator == 1
                   for e, c in self.terms.items())

    def eval(self, q0):
        """Exact value at a rational point q0."""
        q0 = Fraction(q0)
        if q0 == 0 and self.terms and min(self.terms) < 0:
            raise ZeroEvaluationPoint("negative exponent at q0 = 0")
        return sum((c * q0 ** e for e, c in self.terms.items()), Fraction(0))

    # -- equality / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
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
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")


def _raw(terms):
    """Build from an already-clean dict without re-normalizing."""
    p = LaurentPoly()
    p.terms = terms
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
        return _raw({e: Fraction(1) for e in range(m)})
    if m == 0:
        return ZERO
    return _raw({e: Fraction(-1) for e in range(m, 0)})
