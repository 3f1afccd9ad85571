"""The integer module engine against the Fraction engine it replaced.

FractionEngine keeps, in Fractions only, the generator step, the walk of
each term's word one generator at a time, the J_m rows and
WordModuleRep.apply_idempotent as they were before the engine moved onto
Python ints and built rows; every public result, given the reduced form of
the oracle's input, must be the reduced form of the oracle's output.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hecke_matrix, word_matrix
from qshuffle import hecke, linalg
from qshuffle.flags import FlagSpace
from qshuffle.hecke import (HeckeElement, b2r, jucys_murphy_scaled, r2b, r2r,
                            top_ops)
from qshuffle.qpoly import qint
from qshuffle.seminormal import (phi_apply, specht_module, word_gen_rows,
                                 word_module)
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
    """got is the reduced form (int numerators, den > 0, gcd 1) of the
    Fraction vector want."""
    num, den = got
    return (got == linalg._ints(want) and den > 0
            and math.gcd(den, *num) == 1 and all(type(x) is int for x in num))



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
    oracle, n, f = oracle_of(wm), wm.n, linalg._ints(v)
    word = [i for i in word if i < n]
    for i in range(1, n):
        assert same(wm.apply_gen(f, i), oracle.apply_gen(v, i))
    assert same(wm._act(f, wm.word_rows(word)), oracle.apply_word(v, word))
    for elem in (r2r(n), b2r(n), r2b(n), jucys_murphy_scaled(n, n),
                 HeckeElement.zero(n)):
        assert same(wm.apply_hecke(f, elem), oracle.apply_hecke(v, elem))
    for m in range(1, n + 1):
        assert same(wm.apply_jm(f, m), oracle.apply_jm(v, m))
    roots = [Fraction(3), Fraction(-1, 2), Fraction(0), wm.q0]
    want = v
    for root in roots:
        want = [x - root * y
                for x, y in zip(oracle.apply_hecke(want, r2r(n)), want)]
    assert same(wm.apply_shifted_product(f, r2r(n), roots), want)
    # J_m on every W^lambda of this n at this q0, unit vector by unit vector
    for lam in partitions_of(n):
        other = word_module(lam, wm.q0)
        other_oracle = oracle_of(other)
        for m in range(1, n + 1):
            rows = other_oracle.jm_rows(m)
            assert other_oracle.matrix_of(lambda e: linalg._fractions(
                *other.apply_jm(linalg._ints(e), m))) \
                == other_oracle.matrix_of(
                    lambda e: other_oracle._apply_rows(e, rows)), (lam, m)
    total = [Fraction(0)] * wm.dim
    every = [Fraction(0)] * wm.dim
    for nu in partitions_of(n):
        for t in enumerate_syt(nu):
            want = oracle.apply_idempotent(v, t)
            assert same(wm.apply_idempotent(f, t), want), t
            every = [x + y for x, y in zip(every, want)]
            if nu == wm.lam:
                total = [x + y for x, y in zip(total, want)]
    assert same(wm.apply_p_lambda(f), total)
    assert same(wm.apply_idempotent_sum(f, [
        t for nu in partitions_of(n) for t in enumerate_syt(nu)]), every)


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
                                oracle.apply_idempotent(
                                    linalg._fractions(*v), t)), (lam, mu, t)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_flag_actions_match_fraction_engine(data):
    space = FlagSpace(3, 2)
    oracle = FractionEngine(space, {i: space._gen_rows(i) for i in (1, 2)})
    v = data.draw(st.lists(entries, min_size=space.size,
                           max_size=space.size))
    word = data.draw(st.lists(st.integers(1, 2), max_size=5))
    f = linalg._ints(v)
    for i in (1, 2):
        assert same(space.apply_gen(f, i), oracle.apply_gen(v, i))
    assert same(space._act(f, space.word_rows(word)),
                oracle.apply_word(v, word))
    for elem in (*top_ops(3), r2r(3)):
        assert same(space.apply_hecke(f, elem), oracle.apply_hecke(v, elem))


def test_flag_matrices_match_fraction_engine():
    space = FlagSpace(3, 2)
    oracle = FractionEngine(space, {i: space._gen_rows(i) for i in (1, 2)})
    for i in (1, 2):
        assert word_matrix(space, (i,)) == oracle.matrix_of(
            lambda v: oracle.apply_gen(v, i))
    tstar = top_ops(3)[1]
    got = hecke_matrix(space, tstar)
    assert got == oracle.matrix_of(lambda v: oracle.apply_hecke(v, tstar))


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


# -- built rows against dense integer vectors ----------------------------------

def dense_unit_rows(module, terms):
    """The Fraction row of e_r . a for each e_r, a = sum_w c_w T_word over
    the (word, c_w) terms of module._terms_at: every word is applied to the
    whole dense integer vector, generator by generator, scanning every
    entry, with no built rows and no cache of the module's."""
    for r in range(module.dim):
        total = [Fraction(0)] * module.dim
        for word, c in terms:
            v, den = [0] * module.dim, 1
            v[r] = 1
            for i in word:
                d, rows = module._gens[i]
                out = [0] * module.dim
                for k, x in enumerate(v):
                    if x:
                        for j, g in rows[k]:
                            out[j] += x * g
                v, den = out, den * d
            total = [t + c * Fraction(x, den) if x else t
                     for t, x in zip(total, v)]
        yield total


def assert_built_rows_match_dense(module, elem):
    """The built rows of elem, made dense, equal the dense walk, and they
    share one denominator d > 0 with gcd(d, entries) = 1."""
    rows = list(module._hecke_rows(elem))
    want = list(dense_unit_rows(module, module._terms_at(elem)))
    assert [[Fraction(x, d) for x in row] for row, d in rows] == want, elem
    d = {d for _, d in rows}.pop()
    assert {den for _, den in rows} == {d}
    assert d > 0 and math.gcd(d, *(x for row, _ in rows for x in row)) == 1
    assert hecke_matrix(module, elem) == want


def assert_unit_images_match_dense(module, elems):
    n = module.n
    words = ([()] + [(i,) for i in range(1, n)] + [(i, i) for i in range(1, n)]
             + [(i, i + 1, i) for i in range(1, n - 1)])
    for word in words:
        assert word_matrix(module, word) == list(
            dense_unit_rows(module, [(word, Fraction(1))]))
    for elem in elems:
        assert_built_rows_match_dense(module, elem)


DEFAULT_Q = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(7, 5)]


def operators(n):
    return [r2r(n), b2r(n), r2b(n), *top_ops(n), jucys_murphy_scaled(n, n),
            *(hecke._jucys_murphy(n, m) for m in range(1, n + 1)),
            HeckeElement.zero(n)]


@pytest.mark.parametrize("q0", DEFAULT_Q)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sparse_unit_images_match_dense_on_word_and_regular_modules(n, q0):
    # lam = (1^n) among them: W^(1^n) is the regular representation
    for lam in partitions_of(n):
        assert_unit_images_match_dense(word_module(lam, q0), operators(n))


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
def test_sparse_tstar_rows_match_dense_on_flags(n, p):
    space = FlagSpace(n, p)
    tstar = top_ops(n)[1]
    assert_built_rows_match_dense(space, tstar)
    assert {d for _, d in space._hecke_rows(tstar)} == {1}
