"""The mutation matrix: plausible upstream faults and the check families of
the whole suite that catch each.

Each fault patches one source of truth, run_suite(4, [2, 7/5]) runs on the
regular route, and the test pins the exact set of check families (the check
ID without its [q, route] tag) that fail.  A set that grows is a stronger
certifier; a set that shrinks needs a reason.
"""

import functools
import sys
from fractions import Fraction

import pytest

from conftest import swapped_word_gen_rows
from qshuffle import hecke, markov, seminormal, spectra, tableaux
from qshuffle.hecke import HeckeElement, transposition_word
from qshuffle.qpoly import LaurentPoly
from qshuffle.tableaux import Partition
from qshuffle.verify import run_suite


def _rebind(monkeypatch, old, new):
    """Point every binding of old in a qshuffle module at new: verify,
    spectra and markov bind hecke's names with from-imports."""
    for name, module in list(sys.modules.items()):
        if name == "qshuffle" or name.startswith("qshuffle."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    monkeypatch.setattr(module, attr, new)


def _word_rule_swapped(monkeypatch):
    monkeypatch.setattr(seminormal, "word_gen_rows", swapped_word_gen_rows)


def _bn_bstar_order(monkeypatch):
    """R_n = B_n B*_n in place of B*_n B_n."""
    _rebind(monkeypatch, hecke.r2r,
            functools.lru_cache(maxsize=None)(
                lambda n: hecke.b2r(n) * hecke.r2b(n)))


def _strip_values_swapped(monkeypatch):
    """E_(4)/() and E_(1^4)/(1^4) swapped; both have multiplicity 1."""
    original = spectra.eigenvalue_formula
    top, bottom = (Partition((4,)), Partition(())), (Partition((1,) * 4),) * 2

    def swapped(lam, mu):
        if (lam, mu) == top:
            return original(*bottom)
        if (lam, mu) == bottom:
            return original(*top)
        return original(lam, mu)

    _rebind(monkeypatch, original, swapped)


def _jm_power_off_by_one(monkeypatch):
    """q^k J_k with its first term q^0 T_(1,k) in place of q^1 T_(1,k)."""
    @functools.lru_cache(maxsize=None)
    def scaled(n, k):
        total = HeckeElement.zero(n)
        for i in range(1, k):
            total = total + HeckeElement.t_word(
                transposition_word(i, k), n).scale(
                    LaurentPoly.q_power(i - 1 if i == 1 else i))
        return total

    _rebind(monkeypatch, hecke.jucys_murphy_scaled, scaled)


def _d_mu_off_by_one(monkeypatch):
    """d^(2,1) = 2 in place of 1: one shape's desarrangement count."""
    original = tableaux.d_mu
    _rebind(monkeypatch, original,
            lambda mu: original(mu) + (mu == Partition((2, 1))))


def _mallows_weight_exponent(monkeypatch):
    """The Mallows weight of the longest permutation w0 taken at
    q0^(l(w0) - 1) in place of q0^l(w0): its integer a^L b^0 becomes
    a^(L - 1) b^1 for q0 = a/b.  w0 is last in Lehmer-rank order."""
    original = markov._weights

    def weights(n, q0):
        q0 = Fraction(q0)
        out = original(n, q0)
        out[-1] = out[-1] // q0.numerator * q0.denominator
        return out

    _rebind(monkeypatch, original, weights)


def _dipper_james_q_dropped(monkeypatch):
    """The coefficient q [rho + 1] [rho - 1] / [rho]^2 of w_(t s_i), taken
    when t s_i is not below t in dominance, without its factor q."""
    original = seminormal.dipper_james_action

    def dropped(t, i, q0):
        out = original(t, i, q0)
        if len(out) == 2:  # i and i + 1 in neither one row nor one column
            other = t.apply_gen_by_value(i)
            if not other.dominance_leq(t):
                out[other] /= Fraction(q0)
        return out

    _rebind(monkeypatch, original, dropped)


def _b2r_order_reversed(monkeypatch):
    """B_n with the generators of each word in reverse order,
    T_(s_i) T_(s_(i+1)) ... T_(s_(n-1)) in place of
    T_(s_(n-1)) ... T_(s_i)."""
    def reversed_b2r(n):
        total = HeckeElement.zero(n)
        for i in range(1, n + 1):
            total = total + HeckeElement.t_word(range(i, n), n)
        return total

    _rebind(monkeypatch, hecke.b2r, reversed_b2r)


@pytest.mark.parametrize("fault, families", [
    (_word_rule_swapped, {"mallows-stationarity", "seminormal-action",
                          "r2r-charpoly", "b-charpoly", "diagonalizable",
                          "walk-spectrum", "eigenbasis",
                          "one-step-recursion"}),
    (_bn_bstar_order, {"recursion", "eigenbasis", "one-step-recursion"}),
    (_strip_values_swapped, {"eigenbasis", "positivity-degree"}),
    (_jm_power_off_by_one, {
        "recursion", "jucys-murphy-commute", "seminormal-action",
        "idempotents", "phi-morphism", "dominance-vanishing",
        "projection-compat", "straightening", "strip-vanishing",
        "eigenbasis", "one-step-recursion"}),
    (_d_mu_off_by_one, {"r2r-charpoly", "diagonalizable", "walk-spectrum"}),
    (_mallows_weight_exponent, {"mallows-stationarity"}),
    (_dipper_james_q_dropped, {"seminormal-action", "eigenbasis",
                               "one-step-recursion"}),
    # B_n reversed is B*_n, whose char poly is B_n's: b-charpoly holds
    (_b2r_order_reversed, {"recursion", "push-through-lemma", "r2r-charpoly",
                           "diagonalizable", "walk-spectrum", "eigenbasis",
                           "one-step-recursion"}),
])
def test_each_fault_fails_its_pinned_check_families(monkeypatch, fault,
                                                    families):
    fault(monkeypatch)
    results = run_suite(4, [Fraction(2), Fraction(7, 5)])
    assert {r.check_id.split("[")[0] for r in results
            if not r.passed} == families
