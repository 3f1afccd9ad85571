"""Closed-form spectrum of the shuffle operators plus brute-force oracles.

The eigenvalues of the q-random-to-random element R_n(q) are indexed by
horizontal strips lambda/mu:
    E_{lambda/mu}(q) = q^n c_{lambda/mu}(q) + sum_{k=|mu|+1}^n q^{n-k} [k]_q,
with multiplicity f^lambda d^mu.  This module computes the formula tables,
builds the recursive eigenvector basis in each Specht module, and
certifies the spectrum on the regular representation by annihilation and
power traces (certify_spectrum), the one way verify proves a spectrum at
any n, with the characteristic polynomial of the explicit matrix kept as
the oracle (bruteforce_charpoly).  Kernel
and eigenvectors are reduced integer forms (num, den), like every vector of
the module engine (linalg); an EigenvectorRecord's vector becomes Fractions
only in its JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from . import linalg
from .hecke import (CheckFailed, _require_equal, _require_zero, _value_at,
                    b2r_embedded, memo, r2r)
from .linalg import _combine, _form, _fractions, _ints, _scale
from .qpoly import LaurentPoly, qint
from .symmetric import Permutation, derangement_count
from .seminormal import (phi_apply, seminormal_module, specht_module,
                         word_module)
from .tableaux import (Partition, SkewShape, d_mu, enumerate_syt, extend,
                       f_lambda, horizontal_strips, partitions_of, q_content,
                       superstandard)


class NotAHorizontalStrip(ValueError):
    pass


@memo
def eigenvalue_formula(lam, mu):
    """E_{lambda/mu}(q) for a horizontal strip, cross-checked against the
    manifestly positive form sum_k q^(n-k) [content_k + k]_q; built once
    per strip.  If the two forms differ, raises CheckFailed naming lambda,
    mu and both."""
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
        raise CheckFailed(
            f"the two forms of E_lambda/mu disagree for lambda = {lam}, "
            f"mu = {mu}: q^n c_lambda/mu(q) + sum_k q^(n-k) [k]_q = {value}, "
            f"sum_k q^(n-k) [content_k + k]_q = {positive}")
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


@memo
def spectrum_table(n):
    """All strip rows for lambda |- n; rows with d^mu = 0 kept (multiplicity
    0).  The list and its rows are shared: callers must not change them."""
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
        value = _value_at(e, q0)
        mults[value] = mults.get(value, 0) + m
    return mults


@memo
def bruteforce_charpoly(op, q0):
    """Char poly of the regular-representation matrix of op at q0.

    Independent oracle: no spectral theory, just exact elimination on the
    n! x n! matrix, for `charpoly --bruteforce` and the tests; verify
    certifies each spectrum by certify_spectrum instead.  Returns monic
    coefficients, highest degree first, shared: callers must not change
    them.  Coefficient k is that of the integer rows d M of the regular
    module W^(1^n), over d^k.
    """
    rows = list(word_module(Partition((1,) * op.n), q0)._hecke_rows(op))
    d = rows[0][1]
    return [c / d ** k for k, c in
            enumerate(linalg.charpoly([row for row, _ in rows]))]


def _inverse(w):
    """The one-line word of the inverse of the one-line word w."""
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


@memo
def regular_trace_form(n, q0):
    """The reduced form (c, d) of the regular trace at q0: tr_reg(h) =
    sum_w c_w h_w / d, the h_w the entries of T_1 . h on the shared regular
    module W^(1^n), whose basis word of w is its one-line notation.

    tau(T_w) = delta_{w,1} is a symmetrizing trace on H_n(q0), with
    tau(T_u T_{v^-1}) = delta_uv q^l(v), so the coefficient of T_w in x is
    tau(x q^-l(w) T_{w^-1}), and tr_reg(h) = tau(h z) for the Casimir
    element z = sum_v q^-l(v) T_{v^-1} T_v (M. Geck and G. Pfeiffer,
    Characters of Finite Coxeter Groups and Iwahori-Hecke Algebras, OUP
    2000, ch. 8).  So c_w = q^l(w) z_{w^-1}, with z read from T_1 .
    T_{v^-1} . T_v, one pass along v's reduced word per v.  Built once per
    (n, q0) and shared; raises CheckFailed naming n and q0 unless
    tr_reg(1) = n!."""
    reg = word_module(Partition((1,) * n), q0)
    images, weights, lengths = [], [], []
    for w in reg.basis:
        word = Permutation(w).reduced_word()
        v = reg.basis_vector(_inverse(w))
        for i in word:
            v = reg.apply_gen(v, i)
        images.append(v)
        weights.append(reg.q0 ** -len(word))
        lengths.append(len(word))
    z, den = _combine(_ints(weights), images)  # T_1 . z
    a, b = reg.q0.numerator, reg.q0.denominator
    c, d = _form([(a ** k * z[reg.index[_inverse(w)]], b ** k * den)
                  for w, k in zip(reg.basis, lengths)])
    if c[0] != math.factorial(n) * d:
        raise CheckFailed(
            f"the regular trace of 1 at n = {n}, q0 = {reg.q0} is "
            f"{Fraction(c[0], d)}, not n! = {math.factorial(n)}")
    return c, d


def regular_trace(v, n, q0):
    """tr_reg(h) as a Fraction, for the reduced form v = T_1 . h on the
    regular module W^(1^n) at q0."""
    c, d = regular_trace_form(n, q0)
    num, den = v
    return Fraction(sum(map(mul, num, c)), den * d)


def certify_spectrum(module, op, mults, name, scale=1):
    """Certify that op / scale, acting on the shared regular module
    W^(1^n) at q0, has char poly prod (y - E)^m_E over the {E: m_E} of
    mults, E distinct: the formula's spectrum from spectrum_at, over scale.

    Lemma (characteristic 0): if prod_E (X - E) = 0 over distinct E, then X
    is diagonalizable with eigenvalues among the E, and its multiplicities
    are the one solution of sum_E m_E E^k = tr(X^k), k < |S| (Vandermonde),
    so two checks prove the char poly:
    - annihilation: T_1 . prod_E (op - scale E) = 0, since T_1 . h = 0 only
      when h = 0 in H_n(q0) (apply_shifted_product);
    - power traces: tr_reg(op^k) / scale^k = sum_E m_E E^k for k < |S|.
    Both come from _regular_witness, shared by every certificate of op at
    q0.  A failure raises CheckFailed naming the operator and q0, with the
    first nonzero index of T_1 . prod_E (op - scale E), or the first k
    whose traces differ and both traces."""
    annihilated, traces = _regular_witness(
        module, op, tuple(scale * e for e in mults))
    _require_zero(annihilated,
                  lambda: f"T_1 . prod ({name} - E) = 0 over the "
                          f"{len(mults)} distinct formula eigenvalues E fails "
                          f"at q0 = {module.q0}")
    # sum_E m_E E^k = sum_E m_E A_E^k / L^k, A_E = L E for L the lcm of
    # the denominators of the E: integer power sums, one Fraction per k
    lcm = math.lcm(*(e.denominator for e in mults))
    bases = [e.numerator * (lcm // e.denominator) for e in mults]
    terms = list(mults.values())  # m_E A_E^k, from k = 0
    for k, trace in enumerate(traces):
        got, want = trace / Fraction(scale) ** k, Fraction(sum(terms),
                                                            lcm ** k)
        if got != want:
            raise CheckFailed(
                f"tr(({name})^{k}) at q0 = {module.q0} is "
                f"{got}, not the formula's sum of m_E E^{k} = {want}")
        terms = list(map(mul, terms, bases))


@memo
def _regular_witness(module, op, roots):
    """(T_1 . prod over roots r of (op - r), [tr_reg(op^k) for k below the
    number of roots]) on the regular module W^(1^n), each op^k read from
    T_1 . op^k: one vector pass per root and per power, shared."""
    t1 = module.basis_vector(module.basis[0])
    traces, v = [], t1
    for k in range(len(roots)):
        if k:
            v = module.apply_hecke(v, op)
        traces.append(regular_trace(v, module.n, module.q0))
    return module.apply_shifted_product(t1, op, roots), traces


@memo
def kernel_basis(lam, q0):
    """(S^lambda, kappa_lambda): the shared Specht module and a
    deterministic basis of ker(R_|lam| on S^lambda).

    Each vector combines the units by a left-kernel vector of R's built
    rows on seminormal_module(lam, q0), whose basis is the units'
    tableaux, and is a reduced form in W^lambda coordinates; the count is
    d^lambda.  Each is proved on W^lambda: unless v . R = 0, CheckFailed
    names lambda, q0, the kernel vector's index and the first nonzero
    index.
    """
    rep = specht_module(lam, q0)
    if lam.size == 0:
        num, den = rep.units[0]
        return rep, [(num[:], den)]
    op = r2r(lam.size)
    rows = [row for row, _ in seminormal_module(lam, q0)._hecke_rows(op)]
    vectors = [_combine(x, rep.units) for x in linalg.left_kernel(rows)]
    for idx, v in enumerate(vectors):
        _require_zero(rep.word_module.apply_hecke(v, op),
                      lambda: f"kernel vector {idx} of R_{lam.size} on "
                              f"S^{lam} at q0 = {rep.q0} is not killed on "
                              f"W^{lam}")
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
                "vector": [str(x) for x in _fractions(*self.vector)]}


def apply_c_op(rep, v, j):
    """v . C_j^(n) = v . B_{j+1}(q0) ... B_n(q0) inside W^lambda, for the
    reduced form v."""
    for k in range(j + 1, rep.n + 1):
        v = rep.apply_hecke(v, b2r_embedded(k, rep.n))
    return v


@memo
def build_eigenbasis(lam, q0):
    """The eigenvector family {y^lambda_{mu(u)}} spanning S^lambda (q0 > 0),
    shared: callers must not change the records.

    For each horizontal strip lambda/mu and each u in kappa_mu, forms
    u . Phi_{t^{lambda/mu}} . C_{|mu|}^(n) . p_lambda, verifies the
    eigenvector identity, and checks that exactly f^lambda independent
    vectors result; a failure raises CheckFailed naming lambda, q0 and
    either mu, the index of u and the first differing index, or the count
    and rank of the vectors.
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
            value = _value_at(eigenvalue_formula(lam, mu), q0)
            if any(v[0]):
                # for n = 0 the shuffle element is an empty sum
                _require_equal(
                    (rep_lam.apply_hecke(v, r_op) if r_op
                     else _scale(v, 0)), _scale(v, value),
                    lambda: f"not an R_{n}-eigenvector with eigenvalue "
                            f"{value}: lambda = {lam}, mu = {mu}, kernel "
                            f"vector {idx} of S^mu at q0 = {q0}")
            records.append(EigenvectorRecord(lam, mu, idx, v, value))
    rank = linalg.rank([rec.vector[0] for rec in records])
    if rank != len(records) or rank != f_lambda(lam):
        raise CheckFailed(
            f"the eigenvectors of {lam} at q0 = {q0} are not a basis: "
            f"{len(records)} vectors of rank {rank}, against f^lambda = "
            f"{f_lambda(lam)}")
    return records


def straightening_scalars(lam, mu, q0):
    """For each t in SYT(lambda/mu): w_{t(s)} C_j = alpha_t w_{t^max(s)} C_j.

    Verifies the scalar alpha_t is independent of s in SYT(mu) and returns
    {t: alpha_t}.  Both units are read from the shared S^lambda, and each
    reference w_{t^max(s)} C_j is computed once per s.  A failure raises
    CheckFailed naming lambda, mu, t, s, q0 and the first index where
    proportionality fails.
    """
    shape = SkewShape(lam, mu)
    rep = specht_module(lam, q0)
    unit = dict(zip(rep.tableaux, rep.units))
    t_max = superstandard(shape)
    refs = []  # (s, w_{t^max(s)} C_j, its first nonzero index or None)
    for s in enumerate_syt(mu):
        b = apply_c_op(rep.word_module, unit[extend(s, t_max)], mu.size)
        refs.append((s, b, next((j for j, x in enumerate(b[0]) if x), None)))
    out = {}
    for t in enumerate_syt(shape):
        alpha = None
        for s, b, pivot in refs:
            a = apply_c_op(rep.word_module, unit[extend(s, t)], mu.size)

            def where():
                return (f"for lambda = {lam}, mu = {mu}, t = {t}, s = {s} at "
                        f"q0 = {rep.q0}")
            if pivot is None:
                _require_zero(a, lambda: f"w_t(s) C_{mu.size} is nonzero over "
                                         f"a zero reference {where()}")
                continue
            (na, da), (nb, db) = a, b
            ratio = Fraction(na[pivot] * db, da * nb[pivot])
            _require_equal(a, _scale(b, ratio),
                           lambda: f"w_t(s) C_{mu.size} is not proportional "
                                   f"to its reference {where()}")
            if alpha is None:
                alpha = ratio
            elif alpha != ratio:
                raise CheckFailed(
                    f"the straightening scalar depends on the source "
                    f"{where()}, {ratio} at index {pivot} against {alpha} for "
                    f"the first source")
        out[t] = alpha
    return out
