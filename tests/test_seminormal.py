from fractions import Fraction

import pytest

from qshuffle import linalg
from qshuffle.hecke import HeckeElement, r2r
from qshuffle.qpoly import qint
from qshuffle.spectra import kernel_basis
from qshuffle import seminormal
from qshuffle.seminormal import (InadmissibleQ, SpechtRep, WordModuleRep,
                                 check_admissible, content_words,
                                 dipper_james_action, phi_apply, phi_map,
                                 specht_module, word_module)
from qshuffle.tableaux import (Partition, SkewShape, enumerate_syt, f_lambda,
                               horizontal_strips, partitions_of, superstandard)
from qshuffle.verify import (CheckFailed, check_dominance_vanishing,
                             check_idempotents, check_phi_morphism,
                             check_projection_compat, check_seminormal_action,
                             check_tower_rule, check_word_module_relations,
                             run_suite)

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
    assert wm.apply_gen(v, 1) == [q * x for x in v]
    # increasing pair: plain swap
    assert wm.apply_gen(v, 2) == wm.basis_vector((1, 2, 1))
    # decreasing pair: q * swap + (q-1) * original
    w = wm.basis_vector((2, 1, 1))
    expect = [q * a + (q - 1) * b
              for a, b in zip(wm.basis_vector((1, 2, 1)), w)]
    assert wm.apply_gen(w, 1) == expect


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


def test_tower_rule():
    for n in range(1, 5):
        assert check_tower_rule(n, Fraction(2))


def test_units_are_independent():
    for parts in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        rep = SpechtRep(Partition(parts), Fraction(2))
        assert rep.dim == f_lambda(rep.lam)
        assert linalg.rank(rep.units) == rep.dim


def test_gen_matrices_satisfy_quadratic_relation():
    q0 = Fraction(3)
    rep = SpechtRep(Partition((2, 2)), q0)
    eye = linalg.identity(rep.dim)
    for i in range(1, 4):
        g = rep.hecke_action_matrix(HeckeElement.t_word([i], 4))
        assert linalg.mat_mul(g, g) == linalg.mat_add(
            linalg.mat_scale(g, q0 - 1), linalg.mat_scale(eye, q0))


def test_kernel_vector_of_column_shape():
    # ker of the full shuffle on S^(1,1) is spanned by q*(12) - (21)
    q0 = Fraction(2)
    rep = SpechtRep(Partition((1, 1)), q0)
    wm = rep.word_module
    v = [Fraction(0)] * wm.dim
    v[wm.index[(1, 2)]] = q0
    v[wm.index[(2, 1)]] = Fraction(-1)
    assert wm.apply_hecke(v, r2r(2)) == [Fraction(0), Fraction(0)]
    # and it is proportional to the seminormal unit
    assert linalg.rank([v, rep.units[0]]) == 1


def test_jm_diagonal_on_units():
    q0 = Fraction(7, 5)
    rep = SpechtRep(Partition((2, 1)), q0)
    for t, unit in zip(rep.tableaux, rep.units):
        for m in range(1, 4):
            expect = qint(t.content_of(m)).eval(q0)
            assert rep.word_module.apply_jm(unit, m) == [expect * x
                                                         for x in unit]


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
    assert rep.units == [[Fraction(1)]]


def full_product_idempotent(wm, v, t):
    """v . p_t by the full interpolation product: entry m runs over every
    content a cell holding m could have, 1-m..m-1 (0 dropped for m = 2, 3).
    The reference for the restricted product of apply_idempotent."""
    for m in range(t.shape.inner.size + 1, t.n + 1):
        cm = t.content_of(m)
        cm_val = qint(cm).eval(wm.q0)
        for d in range(1 - m, m):
            if d == cm or (d == 0 and m in (2, 3)):
                continue
            d_val = qint(d).eval(wm.q0)
            jv = wm.apply_jm(v, m)
            v = [(jv[j] - d_val * v[j]) / (cm_val - d_val)
                 for j in range(wm.dim)]
    return v


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_restricted_product_matches_full(n, q0):
    # every tableau of size n, of any shape, on every W^lambda
    tableaux = [t for nu in partitions_of(n) for t in enumerate_syt(nu)]
    for lam in partitions_of(n):
        wm = word_module(lam, q0)
        for t in tableaux:
            full = wm.matrix_of(lambda v: full_product_idempotent(wm, v, t))
            assert wm.idempotent_matrix(t) == full, (lam, t)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_restricted_product_factor_count(monkeypatch, n):
    # one J_m factor per content addable to shape(t|_{m-1}), other than
    # c_t(m): 3 or 4 factors per tableau at n = 4, where the full product
    # applies 10
    calls = []
    original = WordModuleRep._jm_times

    def counted(self, num, m):
        calls.append(m)
        return original(self, num, m)

    monkeypatch.setattr(WordModuleRep, "_jm_times", counted)
    wm = WordModuleRep(Partition([1] * n), Fraction(2))
    for lam in partitions_of(n):
        for t in enumerate_syt(lam):
            calls.clear()
            wm.apply_idempotent(wm.basis_vector(wm.basis[0]), t)
            assert calls == [m for m in range(2, n + 1) for _ in range(
                len(t.shape_up_to(m - 1).addable_contents()) - 1)], t


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


def test_module_cache_builds_once_and_stays_fresh(monkeypatch):
    builds = {"word": 0, "specht": 0}

    def counting(init, kind):
        def counted(self, lam, q0):
            builds[kind] += 1
            init(self, lam, q0)
        return counted

    monkeypatch.setattr(WordModuleRep, "__init__",
                        counting(WordModuleRep.__init__, "word"))
    monkeypatch.setattr(SpechtRep, "__init__",
                        counting(SpechtRep.__init__, "specht"))
    q_values = [Fraction(2), Fraction(7, 5)]
    assert all(r.passed for r in run_suite(3, q_values))
    first = dict(builds)
    assert first == {"word": len(seminormal._WORD_MODULES),
                     "specht": len(seminormal._SPECHT_MODULES)}
    builds.update(word=0, specht=0)
    assert all(r.passed for r in run_suite(3, q_values))
    assert builds == first
    # no check changed a shared module: each equals a fresh build
    for (lam, q0), wm in seminormal._WORD_MODULES.items():
        fresh = WordModuleRep(lam, q0)
        assert wm.basis == fresh.basis and wm.gen_rows == fresh.gen_rows
        for m in range(1, lam.size + 1):
            assert wm.jm_rows(m) == fresh.jm_rows(m)
    for (lam, q0), rep in seminormal._SPECHT_MODULES.items():
        fresh = SpechtRep(lam, q0)
        assert rep.word_module is word_module(lam, q0)
        assert rep.tableaux == fresh.tableaux and rep.units == fresh.units
    # every cached kernel basis equals a fresh computation, and
    # clear_module_cache forgets them with the modules
    cached = dict(seminormal._KERNEL_BASES)
    assert cached
    seminormal.clear_module_cache()
    assert not seminormal._KERNEL_BASES
    for (lam, q0), (rep, vectors) in cached.items():
        fresh_rep, fresh = kernel_basis(lam, q0)
        assert fresh_rep.units == rep.units and fresh == vectors, (lam, q0)


def test_idempotent_failure_names_shape_tableau_and_q(monkeypatch):
    lam, bad = Partition((2, 1)), superstandard(Partition((2, 1)))
    original = WordModuleRep.idempotent_matrix

    def wrong(self, t):
        mat = original(self, t)
        if self.lam == lam and t == bad:
            mat[0][0] += 1
        return mat

    monkeypatch.setattr(WordModuleRep, "idempotent_matrix", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    failed = [k for k, r in report.items() if not r.passed]
    assert failed == ["idempotents[q=7/5]"]
    detail = report["idempotents[q=7/5]"].detail
    assert detail.startswith("CheckFailed: p_t p_t = p_t fails")
    assert f"t = {bad} on W^{lam} at q0 = 7/5" in detail
    assert "(row, col) (" in detail


def test_projection_compat_failure_names_strip_and_q(monkeypatch):
    original = WordModuleRep.apply_p_lambda

    def wrong(self, v):
        out = original(self, v)
        if self.lam == Partition((2, 1)):
            out[1] += 1
        return out

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
    original = WordModuleRep.gen_matrix

    def wrong(self, i):
        mat = original(self, i)
        if self.lam == lam and i == gen:
            mat[0][0] += 1
        return mat

    monkeypatch.setattr(WordModuleRep, "gen_matrix", wrong)
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

    def wrong(self, v, k):
        out = original(self, v, k)
        if self.lam == lam and k == (2 if site == "apply_jm" else 1):
            out[1] += 1
        return out

    monkeypatch.setattr(WordModuleRep, site, wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    first = enumerate_syt(lam)[0]
    assert report["seminormal-action[q=7/5]"].detail == (
        f"CheckFailed: {what} for t = {first} on W^{lam} at q0 = 7/5, first "
        f"difference at index 1")


def test_dominance_vanishing_failure_names_both_tableaux(monkeypatch):
    lam = Partition((2, 1))
    original = WordModuleRep.apply_idempotent

    def wrong(self, v, t):
        out = original(self, v, t)
        if self.lam == lam:
            out[2] += 1
        return out

    monkeypatch.setattr(WordModuleRep, "apply_idempotent", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    tabs = enumerate_syt(lam)
    t, s = next((t, s) for t in tabs for s in tabs if not s.dominance_leq(t))
    assert report["dominance-vanishing[q=7/5]"].detail == (
        f"CheckFailed: word(s) p_t = 0 fails for s = {s} not dominated by "
        f"t = {t} on W^{lam} at q0 = 7/5, first nonzero index 2")
