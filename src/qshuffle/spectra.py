"""Closed-form spectrum of the shuffle operators plus brute-force oracles.

The eigenvalues of the q-random-to-random element R_n(q) are indexed by
horizontal strips lambda/mu:
    E_{lambda/mu}(q) = q^n c_{lambda/mu}(q) + sum_{k=|mu|+1}^n q^{n-k} [k]_q,
with multiplicity f^lambda d^mu.  This module computes the formula tables,
builds the recursive eigenvector basis in each Specht module, and checks
everything against characteristic polynomials of explicit matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .hecke import b2r_embedded, memo, r2r, regular_rep_matrix
from .qpoly import LaurentPoly, qint
from .symmetric import derangement_count
from .seminormal import phi_apply, specht_module, word_module
from .tableaux import (Partition, SkewShape, d_mu, enumerate_syt, f_lambda,
                       horizontal_strips, partitions_of, q_content,
                       superstandard)


class NotAHorizontalStrip(ValueError):
    pass


def eigenvalue_formula(lam, mu):
    """E_{lambda/mu}(q) for a horizontal strip, cross-checked against the
    manifestly positive form sum_k q^(n-k) [content_k + k]_q."""
    shape = SkewShape(lam, mu)
    if not shape.is_horizontal_strip():
        raise NotAHorizontalStrip(f"{shape}")
    n = lam.size
    j = mu.size
    value = q_content(shape).shift(n)
    for k in range(j + 1, n + 1):
        value = value + qint(k).shift(n - k)
    positive = LaurentPoly.zero()
    t = superstandard(shape)
    for k in range(j + 1, n + 1):
        positive = positive + qint(t.content_of(k) + k).shift(n - k)
    if value != positive:
        raise AssertionError("eigenvalue formula forms disagree")
    return value


def degree_check(lam, mu):
    """deg E_{lambda/mu} = n + C - 1 with C the largest strip content."""
    value = eigenvalue_formula(lam, mu)
    if mu == lam:
        return value.is_zero()
    t = superstandard(SkewShape(lam, mu))
    cmax = max(t.content_of(k) for k in range(mu.size + 1, lam.size + 1))
    return value.degree() == lam.size + cmax - 1


class SpectrumRow:
    """One horizontal strip lambda/mu with its eigenvalue and multiplicities."""

    __slots__ = ("lam", "mu", "eigenvalue", "d_mu", "f_lambda", "multiplicity")

    def __init__(self, lam, mu):
        self.lam = lam
        self.mu = mu
        self.eigenvalue = eigenvalue_formula(lam, mu)
        self.d_mu = d_mu(mu)
        self.f_lambda = f_lambda(lam)
        self.multiplicity = self.d_mu * self.f_lambda

    def to_json(self):
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "eigenvalue": self.eigenvalue.to_json(),
                "eigenvalue_str": str(self.eigenvalue),
                "d_mu": self.d_mu, "f_lambda": self.f_lambda,
                "multiplicity": self.multiplicity}

    def __repr__(self):
        return (f"SpectrumRow({self.lam}/{self.mu}, {self.eigenvalue}, "
                f"mult={self.multiplicity})")


def _mu_sort_key(mu):
    return (-mu.size, tuple(-p for p in mu.parts))


def spectrum_table(n):
    """All strip rows for lambda |- n; rows with d^mu = 0 kept (multiplicity 0)."""
    rows = []
    for lam in partitions_of(n):
        for mu in sorted(horizontal_strips(lam), key=_mu_sort_key):
            rows.append(SpectrumRow(lam, mu))
    return rows


def r2r_charpoly_factored(n):
    """(eigenvalue, exponent) pairs of the char poly of R_n(q) on H_n(q)."""
    return [(row.eigenvalue, row.multiplicity)
            for row in spectrum_table(n) if row.multiplicity]


def b_charpoly_factored(n):
    """Char poly of B_n(q) and B*_n(q): prod (y - [n-j]_q)^(C(n,j) d_j)."""
    out = []
    for j in range(n + 1):
        exponent = math.comb(n, j) * derangement_count(j)
        if exponent:
            out.append((qint(n - j), exponent))
    return out


def spectrum_at(factored, q0):
    """{value at q0: summed exponent} of (eigenvalue, exponent) pairs, in
    order of first appearance: the roots of prod (y - e(q0))^m.  Distinct
    eigenvalues can meet at q0 (at q0 = 1, [k]_q is k)."""
    mults = {}
    for e, m in factored:
        value = e.eval(q0)
        mults[value] = mults.get(value, 0) + m
    return mults


def bruteforce_charpoly(op, q0):
    """Char poly of the regular-representation matrix of op at q0.

    Independent oracle: no spectral theory, just exact elimination on the
    n! x n! matrix.  Returns monic coefficients, highest degree first.
    """
    return linalg.charpoly(regular_rep_matrix(op, q0))


@memo
def kernel_basis(lam, q0):
    """(S^lambda, kappa_lambda): the shared Specht module and a
    deterministic basis of ker(R_|lam| on S^lambda).

    Vectors are returned in W^lambda coordinates; the count is d^lambda.
    """
    rep = specht_module(lam, q0)
    if lam.size == 0:
        vectors = [rep.units[0][:]]
    else:
        mat = rep.hecke_action_matrix(r2r(lam.size))
        vectors = []
        for x in linalg.left_kernel(mat):
            v = [Fraction(0)] * rep.word_module.dim
            for c, unit in zip(x, rep.units):
                if c:
                    for jdx in range(len(v)):
                        v[jdx] += c * unit[jdx]
            vectors.append(v)
    return rep, vectors


class EigenvectorRecord:
    __slots__ = ("lam", "mu", "source_index", "vector", "eigenvalue_at_q0")

    def __init__(self, lam, mu, source_index, vector, eigenvalue_at_q0):
        self.lam = lam
        self.mu = mu
        self.source_index = source_index
        self.vector = vector
        self.eigenvalue_at_q0 = eigenvalue_at_q0

    def to_json(self):
        return {"lambda": self.lam.to_json(), "mu": self.mu.to_json(),
                "source_index": self.source_index,
                "eigenvalue": str(self.eigenvalue_at_q0),
                "vector": [str(x) for x in self.vector]}


class DegenerateBasis(ArithmeticError):
    pass


def apply_c_op(rep, v, j):
    """v . C_j^(n) = v . B_{j+1}(q0) ... B_n(q0) inside W^lambda."""
    for k in range(j + 1, rep.n + 1):
        v = rep.apply_hecke(v, b2r_embedded(k, rep.n))
    return v


def build_eigenbasis(lam, q0):
    """The eigenvector family {y^lambda_{mu(u)}} spanning S^lambda (q0 > 0).

    For each horizontal strip lambda/mu and each u in kappa_mu, forms
    u . Phi_{t^{lambda/mu}} . C_{|mu|}^(n) . p_lambda, verifies the
    eigenvector identity, and checks that exactly f^lambda independent
    vectors result.
    """
    q0 = Fraction(q0)
    if q0 <= 0:
        raise ValueError("eigenbasis construction requires q0 > 0")
    rep_lam = word_module(lam, q0)
    n = lam.size
    r_op = r2r(n) if n else None
    records = []
    for mu in sorted(horizontal_strips(lam), key=_mu_sort_key):
        rep_mu, kappa = kernel_basis(mu, q0)
        if not kappa:
            continue
        t_skew = superstandard(SkewShape(lam, mu))
        for idx, u in enumerate(kappa):
            v = phi_apply(u, rep_mu.word_module, rep_lam, t_skew)
            v = apply_c_op(rep_lam, v, mu.size)
            v = rep_lam.apply_p_lambda(v)
            value = eigenvalue_formula(lam, mu).eval(q0)
            if any(v):
                # for n = 0 the shuffle element is an empty sum
                image = (rep_lam.apply_hecke(v, r_op) if r_op
                         else [Fraction(0)] * len(v))
                if image != [value * x for x in v]:
                    raise DegenerateBasis(
                        f"not an eigenvector: {lam}/{mu} index {idx}")
            records.append(EigenvectorRecord(lam, mu, idx, v, value))
    vectors = [rec.vector for rec in records]
    if len(records) != f_lambda(lam) or linalg.rank(vectors) != len(records):
        raise DegenerateBasis(f"eigenbasis of {lam} is not a basis")
    return records


def strip_vanishing_defect(lam, mu, q0):
    """u . Phi_t . C_|mu| . p_lambda = 0 when lambda/mu is not a strip, for
    every skew tableau t of shape lambda/mu and every unit u = w_s of S^mu.
    Returns the first (t, s, first nonzero index) where the image is not
    zero, or None if there is none."""
    shape = SkewShape(lam, mu)
    if shape.is_horizontal_strip():
        raise ValueError("expected a non-strip")
    rep_mu = specht_module(mu, q0)
    rep_lam = word_module(lam, q0)
    for t_skew in enumerate_syt(shape):
        for s, u in zip(rep_mu.tableaux, rep_mu.units):
            v = phi_apply(u, rep_mu.word_module, rep_lam, t_skew)
            v = apply_c_op(rep_lam, v, mu.size)
            v = rep_lam.apply_p_lambda(v)
            nonzero = next((j for j, x in enumerate(v) if x), None)
            if nonzero is not None:
                return t_skew, s, nonzero
    return None


def straightening_scalars(lam, mu, q0):
    """For each t in SYT(lambda/mu): w_{t(s)} C_j = alpha_t w_{t^max(s)} C_j.

    Verifies the scalar alpha_t is independent of s in SYT(mu) and returns
    {t: alpha_t}.  Raises AssertionError if proportionality fails.
    """
    from .tableaux import extend
    shape = SkewShape(lam, mu)
    rep_lam = word_module(lam, q0)
    t_max = superstandard(shape)
    sources = enumerate_syt(mu)
    out = {}
    for t in enumerate_syt(shape):
        alpha = None
        for s in sources:
            glued = extend(s, t)
            ref = extend(s, t_max)
            a = rep_lam.apply_idempotent(rep_lam.basis_vector(glued.word()), glued)
            a = apply_c_op(rep_lam, a, mu.size)
            b = rep_lam.apply_idempotent(rep_lam.basis_vector(ref.word()), ref)
            b = apply_c_op(rep_lam, b, mu.size)
            pivot = next((j for j, x in enumerate(b) if x), None)
            if pivot is None:
                if any(a):
                    raise AssertionError("image nonzero over zero reference")
                continue
            ratio = a[pivot] / b[pivot]
            if a != [ratio * x for x in b]:
                raise AssertionError(f"not proportional: {t} with source {s}")
            if alpha is None:
                alpha = ratio
            elif alpha != ratio:
                raise AssertionError(f"scalar depends on source: {t}")
        out[t] = alpha
    return out


def diagonalizability_defect(n, q0):
    """First formula eigenvalue of R_n(q0) whose geometric multiplicity
    (size - rank on the regular representation) differs from its algebraic
    one, as (eigenvalue, geometric, algebraic); None if there is none.
    With M = dm / d, d the lcm of the entry denominators, the rank of
    M - (a/b) I is that of the integer matrix b dm - a d I."""
    mat = regular_rep_matrix(r2r(n), q0)
    size = len(mat)
    d = math.lcm(*(x.denominator for row in mat for x in row))
    dm = [[x.numerator * (d // x.denominator) for x in row] for row in mat]
    for value, mult in spectrum_at(r2r_charpoly_factored(n), q0).items():
        a, b = value.numerator, value.denominator
        shifted = [[b * x - (a * d if i == j else 0)
                    for j, x in enumerate(row)] for i, row in enumerate(dm)]
        geometric = size - linalg.rank(shifted)
        if geometric != mult:
            return value, geometric, mult
    return None
