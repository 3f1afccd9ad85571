"""The integer module engine against the Fraction engine it replaced.

FractionEngine keeps the Fraction-only bodies of HeckeModule._apply_rows,
HeckeModule._apply_terms, the J_m rows and WordModuleRep.apply_idempotent
as they were before the engine moved onto Python ints; every public result
must equal theirs, entry for entry, and every entry must be a Fraction.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import linalg
from qshuffle.flags import FlagSpace
from qshuffle.hecke import (HeckeElement, b2r, jucys_murphy_scaled, r2b, r2r,
                            top_ops, word_gen_rows)
from qshuffle.qpoly import qint
from qshuffle.seminormal import phi_apply, specht_module, word_module
from qshuffle.tableaux import (Partition, SkewShape, enumerate_syt,
                               horizontal_strips, partitions_of)


class FractionEngine:
    """The reference: every vector a dense list of Fractions."""

    def __init__(self, module, gen_rows):
        self.module = module
        self.n, self.q0, self.dim = module.n, module.q0, module.dim
        self.gen_rows = gen_rows

    def _apply_rows(self, v, rows):
        out = [Fraction(0)] * self.dim
        for idx, x in enumerate(v):
            if x:
                for j, c in rows[idx]:
                    out[j] += x * c
        return out

    def apply_gen(self, v, i):
        return self._apply_rows(v, self.gen_rows[i])

    def apply_word(self, v, word):
        for i in word:
            v = self.apply_gen(v, i)
        return v

    def _apply_terms(self, v, terms):
        out = [Fraction(0)] * self.dim
        for word, c in terms:
            img = self.apply_word(v, word)
            for j, x in enumerate(img):
                if x:
                    out[j] += c * x
        return out

    def apply_hecke(self, v, elem):
        return self._apply_terms(v, self.module._terms_at(elem))

    def matrix_of(self, apply_fn):
        out = []
        for idx in range(self.dim):
            v = [Fraction(0)] * self.dim
            v[idx] = Fraction(1)
            out.append(apply_fn(v))
        return out

    def jm_rows(self, m):
        scale = self.q0 ** -m
        mat = self.matrix_of(
            lambda v: self.apply_hecke(v, jucys_murphy_scaled(self.n, m)))
        return [[(j, scale * c) for j, c in enumerate(row) if c]
                for row in mat]

    def apply_jm(self, v, m):
        return self._apply_rows(v, self.jm_rows(m))

    def apply_idempotent(self, v, t):
        shape = list(t.shape.inner.parts)
        for m in range(t.shape.inner.size + 1, t.n + 1):
            cm = t.content_of(m)
            cm_val = qint(cm).eval(self.q0)
            for d in Partition(shape).addable_contents():
                if d == cm:
                    continue
                d_val = qint(d).eval(self.q0)
                denom = cm_val - d_val
                jv = self.apply_jm(v, m)
                v = [(jv[j] - d_val * v[j]) / denom for j in range(self.dim)]
            row = t.row_of(m)
            if row > len(shape):
                shape.append(0)
            shape[row - 1] += 1
        return v


def oracle_of(wm):
    return FractionEngine(wm, word_gen_rows(wm.basis, wm.q0))


def same(got, want):
    """Equal values, every entry of got a Fraction."""
    return got == want and all(type(x) is Fraction for x in got)


Q_VALUES = [Fraction(2), Fraction(7, 5), Fraction(1, 2)]
SHAPES = [lam for n in range(1, 5) for lam in partitions_of(n)]
entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-12, 12),
                              st.integers(1, 15)))


@st.composite
def module_and_vector(draw):
    lam = draw(st.sampled_from(SHAPES))
    wm = word_module(lam, draw(st.sampled_from(Q_VALUES)))
    v = draw(st.lists(entries, min_size=wm.dim, max_size=wm.dim))
    return wm, v


@settings(max_examples=60, deadline=None)
@given(module_and_vector(), st.lists(st.integers(1, 3), max_size=5))
def test_word_module_actions_match_fraction_engine(case, word):
    wm, v = case
    oracle, n = oracle_of(wm), wm.n
    word = [i for i in word if i < n]
    for i in range(1, n):
        assert same(wm.apply_gen(v, i), oracle.apply_gen(v, i))
    assert same(linalg.vec_mat(v, wm.word_matrix(word)),
                oracle.apply_word(v, word))
    for elem in (r2r(n), b2r(n), r2b(n), jucys_murphy_scaled(n, n),
                 HeckeElement.zero(n)):
        assert same(wm.apply_hecke(v, elem), oracle.apply_hecke(v, elem))
    for m in range(1, n + 1):
        assert oracle.matrix_of(lambda e: wm.apply_jm(e, m)) \
            == oracle.matrix_of(lambda e: oracle.apply_jm(e, m))
        assert same(wm.apply_jm(v, m), oracle.apply_jm(v, m))
    total = [Fraction(0)] * wm.dim
    for nu in partitions_of(n):
        for t in enumerate_syt(nu):
            want = oracle.apply_idempotent(v, t)
            assert same(wm.apply_idempotent(v, t), want), t
            if nu == wm.lam:
                total = [x + y for x, y in zip(total, want)]
    assert same(wm.apply_p_lambda(v), total)


@pytest.mark.parametrize("q0", Q_VALUES)
@pytest.mark.parametrize("n", [3, 4])
def test_skew_idempotent_matches_fraction_engine_on_phi_units(n, q0):
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        oracle = oracle_of(wm)
        for mu in horizontal_strips(lam):
            if mu == lam or mu.size == 0:
                continue
            rep_mu = specht_module(mu, q0)
            for t in enumerate_syt(SkewShape(lam, mu)):
                for u in rep_mu.units:
                    v = phi_apply(u, rep_mu.word_module, wm, t)
                    assert same(wm.apply_idempotent(v, t),
                                oracle.apply_idempotent(v, t)), (lam, mu, t)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_flag_actions_match_fraction_engine(data):
    space = FlagSpace(3, 2)
    oracle = FractionEngine(space, {i: space._gen_rows(i) for i in (1, 2)})
    v = data.draw(st.lists(entries, min_size=space.size,
                           max_size=space.size))
    word = data.draw(st.lists(st.integers(1, 2), max_size=5))
    for i in (1, 2):
        assert same(space.apply_gen(v, i), oracle.apply_gen(v, i))
    assert same(linalg.vec_mat(v, space.word_matrix(word)),
                oracle.apply_word(v, word))
    for elem in (*top_ops(3), r2r(3)):
        assert same(space.apply_hecke(v, elem), oracle.apply_hecke(v, elem))


def test_flag_matrices_match_fraction_engine():
    space = FlagSpace(3, 2)
    oracle = FractionEngine(space, {i: space._gen_rows(i) for i in (1, 2)})
    for i in (1, 2):
        assert space.gen_matrix(i) == oracle.matrix_of(
            lambda v: oracle.apply_gen(v, i))
    tstar = top_ops(3)[1]
    got = space.hecke_matrix(tstar)
    assert got == oracle.matrix_of(lambda v: oracle.apply_hecke(v, tstar))
    assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("q0", Q_VALUES)
def test_engine_vectors_keep_one_positive_reduced_denominator(q0):
    # inside the engine p_t leaves (numerators, den) with den > 0 and
    # gcd(den, *numerators) = 1, whatever the signs of the factor constants
    for lam in partitions_of(4):
        wm = word_module(lam, q0)
        for nu in partitions_of(4):
            for t in enumerate_syt(nu):
                for r in range(wm.dim):
                    e = [0] * wm.dim
                    e[r] = 1
                    num, den = wm._idempotent(e, 1, t)
                    assert den > 0 and math.gcd(den, *num) == 1, (lam, t, r)
