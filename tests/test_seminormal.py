import collections
import math
import sys
from fractions import Fraction

import pytest

from qshuffle import hecke, linalg, spectra, verify
from qshuffle.hecke import HeckeElement, HeckeModule, clear_module_cache, r2r
from qshuffle.linalg import _combine, _fractions, _ints, _scale, _times
from qshuffle.qpoly import LaurentPoly, Q, qint
from qshuffle.symmetric import Composition
from qshuffle.spectra import kernel_basis
from conftest import lcm_sum
from qshuffle import seminormal
from qshuffle.seminormal import (InadmissibleQ, SpechtRep, WordModuleRep,
                                 check_admissible, content_words,
                                 dipper_james_action, phi_apply, phi_map,
                                 seminormal_module, specht_module,
                                 word_module)
from qshuffle.tableaux import (Partition, SkewShape, enumerate_syt, f_lambda,
                               horizontal_strips, partitions_of, superstandard)
from qshuffle.verify import (CheckFailed, check_dominance_vanishing,
                             check_idempotents, check_one_step_recursion,
                             check_phi_morphism, check_projection_compat,
                             check_seminormal_action, check_straightening,
                             check_strip_vanishing,
                             check_word_module_relations, run_suite,
                             sub_partitions)

Q_VALUES = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(7, 5)]


def test_admissibility():
    assert check_admissible(2, 5) == Fraction(2)
    with pytest.raises(InadmissibleQ):
        check_admissible(0, 3)
    with pytest.raises(InadmissibleQ):
        check_admissible(-1, 2)  # [2]_{-1} = 0


def test_addable_contents():
    assert Partition(()).addable_contents() == [0]
    assert Partition((1,)).addable_contents() == [1, -1]
    assert Partition((2, 2)).addable_contents() == [2, -2]
    assert Partition((3, 1, 1)).addable_contents() == [3, 0, -3]
    for n in range(6):
        for lam in partitions_of(n):
            grown = [SkewShape(nu, lam).cells()[0]
                     for nu in partitions_of(n + 1) if nu.contains(lam)]
            assert sorted(lam.addable_contents()) == sorted(
                c - r for r, c in grown)


def test_content_words():
    words = content_words(Partition((2, 1)))
    assert words == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


def test_word_action_three_cases():
    wm = WordModuleRep(Partition((2, 1)), Fraction(2))
    q = Fraction(2)
    # equal letters: fixed up to scaling by q
    v = wm.basis_vector((1, 1, 2))
    assert v == ([1, 0, 0], 1)
    assert wm.apply_gen(v, 1) == ([2, 0, 0], 1) == _scale(v, q)
    # increasing pair: plain swap
    assert wm.apply_gen(v, 2) == wm.basis_vector((1, 2, 1))
    # decreasing pair: q * swap + (q-1) * original
    w = wm.basis_vector((2, 1, 1))
    expect = [q * a + (q - 1) * b
              for a, b in zip(_fractions(*wm.basis_vector((1, 2, 1))),
                              _fractions(*w))]
    assert wm.apply_gen(w, 1) == _ints(expect)
    # at q = 1/2 the same swap is the reduced form of (1/2, 0, -1/2)
    half = WordModuleRep(Partition((2, 1)), Fraction(1, 2))
    assert half.apply_gen(w, 1) == ([0, 1, -1], 2)


@pytest.mark.parametrize("q0", Q_VALUES)
def test_word_module_relations(q0):
    for n in range(1, 5):
        assert check_word_module_relations(n, q0)


@pytest.mark.parametrize("q0", Q_VALUES)
def test_seminormal_four_case_action(q0):
    for n in range(1, 5):
        assert check_seminormal_action(n, q0)


def test_dipper_james_example():
    # (2,1): swapping 2,3; rho = +2 from the dominant tableau
    t = superstandard(Partition((2, 1)))
    q0 = Fraction(2)
    other = t.apply_gen_by_value(2)
    rho = qint(2).eval(q0)
    action = dipper_james_action(t, 2, q0)
    assert action == {t: -1 / rho, other: Fraction(1)}
    # from the dominated tableau, rho = -2 and the quotient coefficient shows
    back = dipper_james_action(other, 2, q0)
    rho_m = qint(-2).eval(q0)
    assert back[other] == -1 / rho_m
    assert back[t] == (q0 * qint(-1).eval(q0) * qint(-3).eval(q0) / rho_m ** 2)
    # same row / same column scalar cases
    assert dipper_james_action(t, 1, q0) == {t: q0}
    assert dipper_james_action(other, 1, q0) == {other: Fraction(-1)}


@pytest.mark.parametrize("q0", Q_VALUES)
def test_idempotents(q0):
    for n in range(1, 5):
        assert check_idempotents(n, q0)


def identity(size):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(a, b):
    return [linalg.vec_mat(row, b) for row in a]


def matrix_of(wm, apply_fn):
    """The dense Fraction matrix whose row r is apply_fn(e_r) on the word
    module, apply_fn mapping reduced forms to reduced forms."""
    return [_fractions(*apply_fn(wm.basis_vector(word))) for word in wm.basis]


def jm_matrix(wm, m):
    return matrix_of(wm, lambda v: wm.apply_jm(v, m))


def memo_table(fn):
    """The table of builds of a hecke.memo function."""
    return hecke._TABLES[f"{fn.__module__}.{fn.__qualname__}"]


def idempotent_matrix(wm, t):
    """The Fraction matrix of p_t on wm, from its integer form."""
    d, mat = wm.idempotent_int_matrix(t)
    return [[Fraction(x, d) for x in row] for row in mat]


def check_tower_rule(n, q0):
    """p_t equals the product of the shape projectors of its restrictions."""
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        for t in enumerate_syt(lam):
            direct = idempotent_matrix(wm, t)
            total = identity(wm.dim)
            for k in range(1, n + 1):
                shape = t.shape_up_to(k)
                level = matrix_of(wm, lambda v: wm.apply_p_lambda(v, shape))
                total = mat_mul(total, level)
            if total != direct:
                return False
    return True


def test_tower_rule():
    for n in range(1, 5):
        assert check_tower_rule(n, Fraction(2))


def test_units_are_independent():
    for parts in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        rep = SpechtRep(Partition(parts), Fraction(2))
        assert rep.dim == f_lambda(rep.lam)
        assert linalg.rank([num for num, _ in rep.units]) == rep.dim


@pytest.mark.parametrize("q0", Q_VALUES + [Fraction(1)])
def test_seminormal_modules_satisfy_the_hecke_relations(q0):
    # the rows of Young's seminormal form on every S^lambda, lambda |- n
    # <= 5, compared as built rows like check_word_module_relations
    for n in range(1, 6):
        one = HeckeElement.one(n)
        for lam in partitions_of(n):
            sm = seminormal_module(lam, q0)
            assert sm.dim == f_lambda(lam)
            for i in range(1, n):
                quad = HeckeElement.t_word([i], n).scale(Q - 1) + one.scale(Q)
                hecke._require_same_rows(
                    sm, sm.word_rows((i, i)), sm._built(quad),
                    f"quadratic relation for T_{i} on S^{lam} at q0 = {q0}")
                for j in range(i + 1, n):
                    a, b = (((i, j), (j, i)) if j > i + 1
                            else ((i, j, i), (j, i, j)))
                    hecke._require_same_rows(
                        sm, sm.word_rows(a), sm.word_rows(b),
                        f"relation {a} = {b} on S^{lam} at q0 = {q0}")


def test_kernel_vector_of_column_shape():
    # ker of the full shuffle on S^(1,1) is spanned by q*(12) - (21)
    q0 = Fraction(2)
    rep = SpechtRep(Partition((1, 1)), q0)
    wm = rep.word_module
    v = [Fraction(0)] * wm.dim
    v[wm.index[(1, 2)]] = q0
    v[wm.index[(2, 1)]] = Fraction(-1)
    assert wm.apply_hecke(_ints(v), r2r(2)) == ([0, 0], 1)
    # and it is proportional to the seminormal unit
    assert linalg.rank([v, rep.units[0][0]]) == 1


def test_jm_diagonal_on_units():
    q0 = Fraction(7, 5)
    rep = SpechtRep(Partition((2, 1)), q0)
    for t, unit in zip(rep.tableaux, rep.units):
        for m in range(1, 4):
            expect = qint(t.content_of(m)).eval(q0)
            assert _fractions(*rep.word_module.apply_jm(unit, m)) == [
                expect * x for x in _fractions(*unit)]


def test_phi_map_suffix():
    skew = superstandard(SkewShape(Partition((3, 1)), Partition((2,))))
    # entries 3 at (1,3) and 4 at (2,1): rows 1 then 2
    assert phi_map(skew) == (1, 2)


def test_phi_morphism():
    for n in range(1, 5):
        assert check_phi_morphism(n, Fraction(2))


def test_phi_is_injective_on_basis():
    rep_mu = WordModuleRep(Partition((2,)), Fraction(2))
    rep_lam = WordModuleRep(Partition((2, 1)), Fraction(2))
    skew = superstandard(SkewShape(Partition((2, 1)), Partition((2,))))
    img = phi_apply(rep_mu.basis_vector((1, 1)), rep_mu, rep_lam, skew)
    assert img == rep_lam.basis_vector((1, 1, 2))


def test_dominance_vanishing():
    for n in range(1, 5):
        assert check_dominance_vanishing(n, Fraction(2))


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_projection_compat(n, q0):
    # the skew idempotent p_{t^strip} agrees with p_lambda on Phi(S^mu)
    assert check_projection_compat(n, q0)


def test_empty_shape_module():
    rep = SpechtRep(Partition(()), Fraction(2))
    assert rep.dim == 1
    assert rep.units == [([1], 1)]


def full_product_idempotent(wm, v, t):
    """v . p_t by the full interpolation product, in Fractions, for the
    reduced form v: entry m runs over every content a cell holding m could
    have, 1-m..m-1 (0 dropped for m = 2, 3).  The reference for the
    restricted product of apply_idempotent; returns the reduced form."""
    v = _fractions(*v)
    for m in range(t.shape.inner.size + 1, t.n + 1):
        cm = t.content_of(m)
        cm_val = qint(cm).eval(wm.q0)
        for d in range(1 - m, m):
            if d == cm or (d == 0 and m in (2, 3)):
                continue
            d_val = qint(d).eval(wm.q0)
            jv = _fractions(*wm.apply_jm(_ints(v), m))
            v = [(jv[j] - d_val * v[j]) / (cm_val - d_val)
                 for j in range(wm.dim)]
    return _ints(v)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_restricted_product_matches_full(n, q0):
    # every tableau of size n, of any shape, on every W^lambda
    tableaux = [t for nu in partitions_of(n) for t in enumerate_syt(nu)]
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        for t in tableaux:
            full = matrix_of(wm, lambda v: full_product_idempotent(wm, v, t))
            assert idempotent_matrix(wm, t) == full, (lam, t)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_product_factor_count(monkeypatch, n):
    # one J_m factor per content addable to shape(t|_{m-1}), other than
    # c_t(m): 3 or 4 factors per tableau at n = 4, where the full product
    # applies 10
    calls = []
    original = seminormal._step
    wm = WordModuleRep(Partition([1] * n), Fraction(2))
    jm_of = {id(wm._jm(m)[1]): m for m in range(1, n + 1)}

    def counted(num, den, rows, p, r, s):
        calls.append(jm_of[id(rows)])
        return original(num, den, rows, p, r, s)

    monkeypatch.setattr(seminormal, "_step", counted)
    for lam in partitions_of(n):
        for t in enumerate_syt(lam):
            calls.clear()
            wm.apply_idempotent(wm.basis_vector(wm.basis[0]), t)
            assert calls == [m for m in range(2, n + 1) for _ in range(
                len(t.shape_up_to(m - 1).addable_contents()) - 1)], t


def per_vector_idempotent(wm, num, den, t):
    """(num, den) . p_t by the per-vector factor loop the factor schedules
    replaced: the addable contents of the running shape are recomputed,
    factor by factor, for every vector."""
    shape = list(t.shape.inner.parts)
    for m in range(t.shape.inner.size + 1, t.n + 1):
        cm = t.content_of(m)
        for d in Partition(shape).addable_contents():
            if d == cm:
                continue
            p, r, s = wm._factor(m, cm, d)
            jv = _times(num, wm._jm(m)[1], wm.dim)
            num = [p * x - r * y for x, y in zip(jv, num)]
            den *= s
            g = math.gcd(den, *num)
            if g > 1:
                num, den = [x // g for x in num], den // g
        row = t.row_of(m)
        if row > len(shape):
            shape.append(0)
        shape[row - 1] += 1
    return num, den


@pytest.mark.parametrize("q0", Q_VALUES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_factor_schedules_match_the_per_vector_loop(n, q0):
    # every tableau of shape nu/mu, nu |- n (mu empty: the straight ones),
    # on every W^lambda
    tableaux = [t for nu in partitions_of(n) for mu in sub_partitions(nu)
                for t in enumerate_syt(SkewShape(nu, mu))]
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        units = [[int(i == r) for i in range(wm.dim)] for r in range(wm.dim)]
        mixed = [Fraction(k + 1, 3 - k % 2) for k in range(wm.dim)]
        for t in tableaux:
            rows = [per_vector_idempotent(wm, e, 1, t) for e in units]
            assert [wm._idempotent(e, 1, t) for e in units] == rows, (lam, t)
            d = math.lcm(*(den for _, den in rows))
            assert wm.idempotent_int_matrix(t) == (
                d, [[x * (d // den) for x in num] for num, den in rows])
            want = per_vector_idempotent(wm, *_ints(mixed), t)
            assert wm.apply_idempotent(_ints(mixed), t) == want, (lam, t)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_restricted_skew_product_matches_full_on_phi_units(n, q0):
    # a skew p_t needs its input in the image of a shape-mu idempotent:
    # u Phi_t with u a seminormal unit of S^mu
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        for mu in horizontal_strips(lam):
            if mu == lam or mu.size == 0:
                continue
            rep_mu = specht_module(mu, q0)
            for t in enumerate_syt(SkewShape(lam, mu)):
                for u in rep_mu.units:
                    v = phi_apply(u, rep_mu.word_module, wm, t)
                    assert wm.apply_idempotent(v, t) == full_product_idempotent(
                        wm, v, t), (lam, mu, t)


def test_sub_partitions_returns_a_fresh_list():
    lam = Partition((2, 1))
    first = sub_partitions(lam)
    assert first == [Partition(()), Partition((1,)), Partition((2,)),
                     Partition((1, 1))]
    first.pop()
    first.reverse()
    assert sub_partitions(lam) == [Partition(()), Partition((1,)),
                                   Partition((2,)), Partition((1, 1))]


def test_module_cache_builds_once_and_stays_fresh(monkeypatch):
    builds = {"word": 0, "specht": 0, "module": 0}

    def counting(init, kind):
        def counted(self, *args):
            builds[kind] += 1
            init(self, *args)
        return counted

    monkeypatch.setattr(WordModuleRep, "__init__",
                        counting(WordModuleRep.__init__, "word"))
    monkeypatch.setattr(SpechtRep, "__init__",
                        counting(SpechtRep.__init__, "specht"))
    monkeypatch.setattr(HeckeModule, "__init__",
                        counting(HeckeModule.__init__, "module"))
    q_values = [Fraction(2), Fraction(7, 5)]
    assert all(r.passed for r in run_suite(3, q_values))
    first = dict(builds)
    # every HeckeModule a run builds is a word module memo entry, the
    # regular representation W^(1^n) among them, or a seminormal module
    # memo entry: one of each per (lambda, q0)
    assert memo_table(seminormal_module)
    assert first == {"word": len(memo_table(word_module)),
                     "specht": len(memo_table(specht_module)),
                     "module": len(memo_table(word_module))
                     + len(memo_table(seminormal_module))}
    assert (Partition((1, 1, 1)), Fraction(2)) in memo_table(word_module)
    builds.update(word=0, specht=0, module=0)
    assert all(r.passed for r in run_suite(3, q_values))
    assert builds == first
    # no check changed a shared module: each equals a fresh build
    for (lam, q0), wm in memo_table(word_module).items():
        fresh = WordModuleRep(lam, q0)
        assert wm.basis == fresh.basis
        for i in range(1, lam.size):
            assert wm.word_rows((i,)) == fresh.word_rows((i,))
        for m in range(1, lam.size + 1):
            assert jm_matrix(wm, m) == jm_matrix(fresh, m)
        # and no caller changed a shared idempotent image
        assert wm._images
        for (num, den, t), image in wm._images.items():
            assert fresh._idempotent(list(num), den, t) == image
    for (lam, q0), rep in memo_table(specht_module).items():
        fresh = SpechtRep(lam, q0)
        assert rep.word_module is word_module(lam, q0)
        assert rep.tableaux == fresh.tableaux and rep.units == fresh.units
    # nor a shared seminormal module: its generator rows, and the rows of
    # each element it built, are those of a fresh build
    for args, sm in memo_table(seminormal_module).items():
        fresh = seminormal_module.__wrapped__(*args)
        assert sm._gens == fresh._gens, args
        for elem, rows in sm._elements.items():
            assert rows == fresh._built(elem), args
    # every cached kernel basis equals a fresh computation
    cached = dict(memo_table(kernel_basis))
    assert cached
    clear_module_cache()
    for (lam, q0), (rep, vectors) in cached.items():
        fresh_rep, fresh = kernel_basis(lam, q0)
        assert fresh_rep.units == rep.units and fresh == vectors, (lam, q0)
    # after a run at n = 4 and four q every registered table holds builds,
    # and clear_module_cache empties every one
    assert all(r.passed for r in run_suite(4, Q_VALUES))
    saved = {name: dict(table) for name, table in hecke._TABLES.items()}
    assert set(saved) == {
        "qshuffle.hecke.r2r", "qshuffle.hecke.b2r_embedded",
        "qshuffle.hecke.r2b_embedded",
        "qshuffle.seminormal.word_module", "qshuffle.seminormal.specht_module",
        "qshuffle.seminormal.seminormal_module",
        "qshuffle.spectra.kernel_basis", "qshuffle.spectra.build_eigenbasis",
        "qshuffle.spectra.bruteforce_charpoly",
        "qshuffle.spectra.regular_trace_form",
        "qshuffle.spectra._regular_witness",
        "qshuffle.hecke.jucys_murphy_scaled", "qshuffle.hecke._jucys_murphy",
        "qshuffle.hecke._PAIRS", "qshuffle.hecke._value_at",
        "qshuffle.spectra.spectrum_table",
        "qshuffle.spectra.eigenvalue_formula"}
    # the char poly oracle serves charpoly --bruteforce and the tests only
    assert [name for name, table in saved.items() if not table] == [
        "qshuffle.spectra.bruteforce_charpoly"]
    clear_module_cache()
    assert [name for name, table in hecke._TABLES.items() if table] == []
    # each cached eigenbasis, regular trace form, spectrum certificate
    # witness, spectrum table and eigenvalue equals a fresh build, so no
    # caller changed a shared one
    for fn, form in ((spectra.build_eigenbasis,
                      lambda records: [r.to_json() for r in records]),
                     (spectra.regular_trace_form, tuple),
                     (spectra._regular_witness, tuple),
                     (spectra.spectrum_table,
                      lambda rows: [r.to_json() for r in rows]),
                     (spectra.eigenvalue_formula, lambda e: e.terms)):
        for args, built in saved[f"{fn.__module__}.{fn.__name__}"].items():
            fresh = fn.__wrapped__(*args)
            assert fresh is not built and form(fresh) == form(built), args
    # each cached symbolic operator and J_m element has the terms of a fresh
    # build, so no caller changed a shared element
    for fn in (hecke.b2r_embedded, hecke.r2b_embedded, hecke.r2r,
               hecke.jucys_murphy_scaled, hecke._jucys_murphy):
        for args, elem in saved[f"qshuffle.hecke.{fn.__name__}"].items():
            fresh = fn.__wrapped__(*args)
            assert fresh is not elem and fresh.terms == elem.terms, args
    # each element's cached rows on a word module, the regular one among
    # them, equal the rows a freshly built module builds for it
    built = [(args, module, elem, rows)
             for args, module in saved[
                 "qshuffle.seminormal.word_module"].items()
             for elem, rows in module._elements.items()]
    assert any(elem in saved["qshuffle.hecke._jucys_murphy"].values()
               for *_, elem, _ in built)
    on_regular = {elem for (lam, _), _, elem, _ in built
                  if lam == Partition((1,) * 4)}
    assert {r2r(4), hecke.r2b(4), hecke.r2b_embedded(2, 4),
            hecke.m_alpha(Composition([1, 1, 2]))} <= on_regular
    fresh_modules = {}
    for args, module, elem, rows in built:
        assert module._elements[elem] is rows  # the key still hashes alike
        if args not in fresh_modules:
            fresh_modules[args] = word_module.__wrapped__(*args)
        assert rows == fresh_modules[args]._built(elem), args
    clear_module_cache()


def test_each_element_is_built_once_per_module(monkeypatch):
    # in one run every (module, element) pair reaches the row build once:
    # J_m, the shuffle elements and every other element acting at q0
    builds = collections.Counter()
    original = HeckeModule._terms_at

    def counted(self, elem):
        builds[self, elem] += 1
        return original(self, elem)

    monkeypatch.setattr(HeckeModule, "_terms_at", counted)
    assert all(r.passed for r in run_suite(3, [2, Fraction(7, 5)]))
    assert builds and max(builds.values()) == 1
    jm = {hecke._jucys_murphy(3, m) for m in range(1, 4)}
    assert jm <= {elem for _, elem in builds}


def test_each_coefficient_is_evaluated_once_per_q(monkeypatch):
    # a warm run at n = 4 and four q evaluates each (polynomial, q0) pair
    # once: every module and check reads its values from hecke._value_at
    assert all(r.passed for r in run_suite(4, Q_VALUES))
    calls = collections.Counter()
    original = LaurentPoly.eval

    def counted(self, q0):
        calls[self, Fraction(q0)] += 1
        return original(self, q0)

    monkeypatch.setattr(LaurentPoly, "eval", counted)
    assert all(r.passed for r in run_suite(4, Q_VALUES))
    assert calls and max(calls.values()) == 1
    assert len(calls) == len(memo_table(hecke._value_at))


def test_form_checks_build_no_fraction_vector(monkeypatch):
    # between a module action and its comparison every vector stays a
    # reduced integer form: no linalg._fractions call, in any qshuffle
    # namespace that binds it, once the shared modules are built, nor in a
    # whole passing run
    q0 = Fraction(7, 5)
    assert all(r.passed for r in run_suite(3, [q0]))
    calls, original = [], linalg._fractions

    def counted(num, den):
        calls.append(den)
        return original(num, den)

    bound = [name for name, module in list(sys.modules.items())
             if name.split(".")[0] == "qshuffle"
             and vars(module).get("_fractions") is original]
    assert {"qshuffle.linalg", "qshuffle.spectra"} <= set(bound)
    for name in bound:
        monkeypatch.setattr(sys.modules[name], "_fractions", counted)
    for check in (check_seminormal_action, check_phi_morphism,
                  check_dominance_vanishing, check_projection_compat,
                  check_straightening, check_strip_vanishing,
                  check_one_step_recursion):
        assert check(3, q0) is True
    assert calls == []
    assert all(r.passed for r in run_suite(3, [q0]))
    assert calls == []


def test_idempotent_failure_names_shape_tableau_and_q(monkeypatch):
    bad = superstandard(Partition((2, 1)))

    def plus_e_00(wm, t, v, image):  # p_t + E_00 on W^(1,1,1) only, which
        if t != bad or wm.lam != Partition((1, 1, 1)):  # only the identities
            return image                                # on T_1 read
        (num, den), cell = v, [0] * wm.dim
        cell[0] = num[0]
        return _combine(([1, 1], 1), [image, (cell, den)])

    _inject(monkeypatch, plus_e_00)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    failed = [k for k, r in report.items() if not r.passed]
    assert failed == ["idempotents[q=7/5]"]
    detail = report["idempotents[q=7/5]"].detail
    assert detail.startswith(
        f"CheckFailed: p_t p_t = p_t fails in H_3 for s = {bad}, t = {bad}: "
        f"T_1 . p_s p_t on W^(1,1,1) at q0 = 7/5, first difference at index ")


def fraction_check_idempotents(n, q0):
    """check_idempotents as it was before it moved onto the integers: dense
    Fraction products and sums.  The oracle for its verdicts and messages;
    it reads p_t and the Specht modules through the same entry points."""
    def first_cell(a, b):
        return next(((i, j) for i, (ra, rb) in enumerate(zip(a, b))
                     for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)

    def require_equal(got, want, what):
        if got != want:
            raise CheckFailed(f"{what}, first difference at (row, col) "
                              f"{first_cell(got, want)}")

    def mat_add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    for lam in partitions_of(n):
        rep = verify.specht_module(lam, q0)
        wm = rep.word_module
        where = f"on W^{lam} at q0 = {wm.q0}"
        mats = [idempotent_matrix(wm, t) for t in rep.tableaux]
        zero = [[Fraction(0)] * wm.dim for _ in range(wm.dim)]
        for a, ma in zip(rep.tableaux, mats):
            for b, mb in zip(rep.tableaux, mats):
                prop = "p_t p_t = p_t" if a == b else "p_s p_t = 0"
                require_equal(mat_mul(ma, mb), ma if a == b else zero,
                              f"{prop} fails for s = {a}, t = {b} {where}")
        total = mats[0]
        for m in mats[1:]:
            total = mat_add(total, m)
        require_equal(mat_mul(total, total), total,
                      f"p_lambda p_lambda = p_lambda fails {where}")
        trace = sum(total[i][i] for i in range(wm.dim))
        if trace != f_lambda(lam):
            raise CheckFailed(f"trace of p_lambda is {trace}, not f^lambda "
                              f"= {f_lambda(lam)}, {where}")
        for t, form in zip(rep.tableaux, rep.units):
            unit = _fractions(*form)
            image = linalg.vec_mat(unit, total)
            if image != unit:
                index = next(i for i, (x, y) in enumerate(zip(image, unit))
                             if x != y)
                raise CheckFailed(
                    f"w_t p_lambda = w_t fails for t = {t} {where}, first "
                    f"difference at index {index}")
    reg = verify.word_module(Partition((1,) * n), q0)
    form = reg.basis_vector(reg.basis[0])
    unit = _fractions(*form)
    total = [Fraction(0)] * reg.dim
    for mu in partitions_of(n):
        for t in enumerate_syt(mu):
            total = [x + y for x, y in zip(
                total, _fractions(*reg.apply_idempotent(form, t)))]
    if total != unit:
        index = next(i for i, (x, y) in enumerate(zip(total, unit)) if x != y)
        raise CheckFailed(f"sum of p_t over all tableaux of size {n} = 1 fails "
                          f"on W^{reg.lam} at q0 = {reg.q0}, first difference "
                          f"at index {index}")
    return True


def completeness_on_every_module(n, q0):
    """The completeness sum as check_idempotents took it before it moved
    into the algebra: sum of p_t over all tableaux of size n = 1 on every
    W^lambda, each p_t an integer matrix.  The oracle for _require_complete,
    which checks T_1 . sum p_t = T_1 on W^(1^n) alone."""
    for lam in partitions_of(n):
        wm = verify.word_module(lam, q0)
        every = [wm.idempotent_int_matrix(t)
                 for mu in partitions_of(n) for t in enumerate_syt(mu)]
        everything, den = lcm_sum([(m, d) for d, m in every])
        if everything != [[den * (i == j) for j in range(wm.dim)]
                          for i in range(wm.dim)]:
            raise CheckFailed(f"sum of p_t over all tableaux of size {n} = 1 "
                              f"fails on W^{lam} at q0 = {wm.q0}")
    return True


def _of_own_shape(t, index=-1):
    """t is the last (or index-th) tableau of its shape lambda, for lambda
    neither a row nor a column, so that the checks of earlier shapes pass
    first."""
    lam = t.shape.outer
    return (lam.parts[0] < lam.size and len(lam.parts) < lam.size
            and t == enumerate_syt(lam)[index])


# Each fault below takes (wm, t, v, image), image = v . p_t on the module
# wm, and returns the faulted image; it is injected through
# WordModuleRep._idempotent, so it acts on every module, the regular one
# among them, and reaches the identities on T_1 as well as every dense
# matrix the oracle builds.

def _plus_e_cc(wm, t, v, image):  # p_t + E_cc, t first, c the middle index
    if _of_own_shape(t, 0):
        (num, den), c = v, wm.dim // 2
        cell = [0] * wm.dim
        cell[c] = num[c]
        return _combine(([1, 1], 1), [image, (cell, den)])
    return image


def _zeroed(wm, t, v, image):
    if _of_own_shape(t):
        return [0] * wm.dim, 1
    return image


def _row_shape_zeroed(wm, t, v, image):
    """T_1 . p_t = 0 for the row-shape t on the regular module W^(1^n),
    n > 1: only the completeness sum sees it."""
    n = wm.lam.size
    if n > 1 and wm.lam.parts == (1,) * n \
            and t == enumerate_syt(Partition([n]))[0]:
        return [0] * wm.dim, 1
    return image


def _doubled(wm, t, v, image):
    if _of_own_shape(t):
        return _scale(image, 2)
    return image


def _plus_first(wm, t, v, image):  # p_t + p_s, s the first of t's shape
    first = enumerate_syt(t.shape.outer)[0]
    if _of_own_shape(t) and t != first:
        return _combine(([1, 1], 1), [image, wm._idempotent(*v, first)])
    return image


def _inject(monkeypatch, fault):
    """WordModuleRep._idempotent with fault applied to every image."""
    original = WordModuleRep._idempotent
    monkeypatch.setattr(
        WordModuleRep, "_idempotent",
        lambda self, num, den, t: fault(self, t, (num, den),
                                        original(self, num, den, t)))


class _UnitOffImage:
    """A Specht module whose first unit is replaced by the first basis
    vector of W^lambda."""

    def __init__(self, rep):
        self.word_module, self.tableaux = rep.word_module, rep.tableaux
        self.units = [rep.word_module.basis_vector(rep.word_module.basis[0])]
        self.units += rep.units[1:]


def _outcome(check, n, q0):
    try:
        return check(n, q0)
    except CheckFailed as exc:
        return str(exc)


@pytest.mark.parametrize("inject, failures", [
    (None, set()),
    (_plus_e_cc, {"p_t p_t = p_t fails"}),
    (_plus_first, {"p_s p_t = 0 fails"}),
    (_zeroed, {"trace of p_lambda is"}),
    (_row_shape_zeroed, {"sum of p_t over all tableaux"}),
    (_doubled, {"p_t p_t = p_t fails"}),
    ("units", {"w_t p_lambda = w_t fails"})])
def test_integer_idempotent_check_matches_fraction_oracle(monkeypatch, inject,
                                                          failures):
    if inject == "units":
        original = verify.specht_module
        monkeypatch.setattr(verify, "specht_module",
                            lambda lam, q0: _UnitOffImage(original(lam, q0)))
    elif inject:
        _inject(monkeypatch, inject)
    seen = set()
    for n in range(1, 5):
        for q0 in Q_VALUES:
            got = _outcome(check_idempotents, n, q0)
            want = _outcome(fraction_check_idempotents, n, q0)
            # one verdict, and the same failing property: the identities
            # checked on T_1 are worded in H_n, the oracle's on W^lambda
            assert (got is True) == (want is True), (n, q0)
            if got is not True:
                family = next(f for f in failures if got.startswith(f))
                assert want.startswith(family), (n, q0, got, want)
                seen.add(family)
            if inject is _row_shape_zeroed and n > 1:
                assert f"on W^{Partition((1,) * n)} at q0" in got
    assert seen == failures


@pytest.mark.parametrize("zeroed", [False, True])
def test_completeness_on_t1_agrees_with_every_module(monkeypatch, zeroed):
    # Sum p_t = 1 in H_n(q0) holds on every W^lambda exactly when it holds
    # on T_1 in W^(1^n), so the two give one verdict, with or without the
    # row-shape p_t zeroed on W^(1^n)
    if zeroed:
        _inject(monkeypatch, _row_shape_zeroed)
    for n in range(2 if zeroed else 1, 5):
        for q0 in Q_VALUES:
            every = _outcome(completeness_on_every_module, n, q0)
            on_t1 = _outcome(verify._require_complete, n, q0)
            assert (every is True) == (on_t1 is None) == (not zeroed), (n, q0)


@pytest.mark.parametrize("q0", Q_VALUES)
def test_completeness_holds_at_n5(q0):
    assert verify._require_complete(5, q0) is None


def test_projection_compat_failure_names_strip_and_q(monkeypatch):
    original = WordModuleRep.apply_p_lambda

    def wrong(self, v):  # 1 added at index 1: den added to its numerator
        num, den = original(self, v)
        if self.lam == Partition((2, 1)):
            num[1] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_p_lambda", wrong)
    with pytest.raises(CheckFailed) as err:
        check_projection_compat(3, Fraction(2))
    message = str(err.value)
    assert "lambda = (2,1), mu = (2)" in message
    assert "at q0 = 2, first difference at index 1" in message


@pytest.mark.parametrize("gen, relation", [(1, "quadratic relation for T_1"),
                                           (2, "braid relation for T_1, T_2")])
def test_word_module_relations_failure_names_relation(monkeypatch, gen,
                                                      relation):
    lam = Partition((2, 1))
    original = seminormal.word_gen_rows

    def wrong(words, q0):  # T_gen + E_00 on W^lam
        rows = original(words, q0)
        if list(words) == content_words(lam):
            rows[gen][0].append((0, Fraction(1)))
        return rows

    monkeypatch.setattr(seminormal, "word_gen_rows", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["word-module-relations[q=7/5]"].detail
    assert detail.startswith(f"CheckFailed: {relation} fails on W^{lam} at "
                             f"q0 = 7/5, first difference at (row, col) (")


@pytest.mark.parametrize("site, what", [
    ("apply_jm", "w_t J_2 = [1]_q w_t fails"),
    ("apply_gen", "w_t T_1 = the four-case formula fails")])
def test_seminormal_action_failure_names_tableau_index_and_q(monkeypatch,
                                                             site, what):
    lam = Partition((2, 1))
    original = getattr(WordModuleRep, site)

    def wrong(self, v, k):  # 1 added at index 1: den added to its numerator
        num, den = original(self, v, k)
        if self.lam == lam and k == (2 if site == "apply_jm" else 1):
            num[1] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, site, wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    first = enumerate_syt(lam)[0]
    assert report["seminormal-action[q=7/5]"].detail == (
        f"CheckFailed: {what} for t = {first} on W^{lam} at q0 = 7/5, first "
        f"difference at index 1")


def test_dominance_vanishing_failure_names_both_tableaux(monkeypatch):
    lam = Partition((2, 1))
    original = WordModuleRep.apply_idempotent

    def wrong(self, v, t):  # 1 added at index 2: den added to its numerator
        num, den = original(self, v, t)
        if self.lam == lam:
            num = num[:]  # a copy: the image is shared
            num[2] += den
        return num, den

    monkeypatch.setattr(WordModuleRep, "apply_idempotent", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    tabs = enumerate_syt(lam)
    t, s = next((t, s) for t in tabs for s in tabs if not s.dominance_leq(t))
    assert report["dominance-vanishing[q=7/5]"].detail == (
        f"CheckFailed: word(s) p_t = 0 fails for s = {s} not dominated by "
        f"t = {t} on W^{lam} at q0 = 7/5, first nonzero index 2")


def test_phi_morphism_failure_names_shapes_tableau_and_q(monkeypatch):
    lam, mu, original = Partition((2, 1)), Partition((1, 1)), verify.phi_apply

    def wrong(v, rep_mu, rep_lam, t):  # Phi_t from W^(1,1) to W^(2,1) only,
        num, den = original(v, rep_mu, rep_lam, t)  # 1 added at index 0
        if rep_mu.lam == mu and rep_lam.lam == lam:
            num[0] += den
        return num, den

    monkeypatch.setattr(verify, "phi_apply", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["phi-morphism[q=7/5]"].detail
    t = enumerate_syt(SkewShape(lam, mu))[0]
    assert detail == (
        f"CheckFailed: Phi_t T_1 = T_1 Phi_t fails on the word (1, 2) of "
        f"W^(1,1) for lambda = (2,1), mu = (1,1), t = {t} at q0 = 7/5, first "
        f"difference at index 0")


def test_phi_morphism_gluing_failure_names_shapes_tableaux_and_q(monkeypatch):
    lam, mu, original = Partition((2, 1)), Partition((1, 1)), verify.extend

    def wrong(s, t):  # t(s) replaced by the other tableau of (2,1)
        glued = original(s, t)
        if t.shape.inner == mu and t.shape.outer == lam:
            return next(u for u in enumerate_syt(lam) if u != glued)
        return glued

    monkeypatch.setattr(verify, "extend", wrong)
    with pytest.raises(CheckFailed) as err:
        check_phi_morphism(3, Fraction(7, 5))
    s, t = enumerate_syt(mu)[0], enumerate_syt(SkewShape(lam, mu))[0]
    assert str(err.value) == (
        f"w_t(s) = w_s Phi_t p_t(s) fails for lambda = (2,1), mu = (1,1), "
        f"s = {s}, t = {t} at q0 = 7/5, first difference at index 0")
