from fractions import Fraction

import pytest

from qshuffle import hecke, linalg, verify
from qshuffle.hecke import HeckeElement, clear_module_cache, r2r
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
                             check_word_module_relations, run_suite)

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


def identity(size):
    return [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]


def mat_mul(a, b):
    return [linalg.vec_mat(row, b) for row in a]


def matrix_of(wm, apply_fn):
    """The dense matrix whose row r is apply_fn(e_r) on the word module."""
    return [apply_fn(wm.basis_vector(word)) for word in wm.basis]


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
        assert linalg.rank(rep.units) == rep.dim


def test_gen_matrices_satisfy_quadratic_relation():
    q0 = Fraction(3)
    rep = SpechtRep(Partition((2, 2)), q0)
    eye = identity(rep.dim)
    for i in range(1, 4):
        g = rep.hecke_action_matrix(HeckeElement.t_word([i], 4))
        assert mat_mul(g, g) == [
            [(q0 - 1) * x + q0 * e for x, e in zip(row, eye_row)]
            for row, eye_row in zip(g, eye)]


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
            full = matrix_of(wm, lambda v: full_product_idempotent(wm, v, t))
            assert idempotent_matrix(wm, t) == full, (lam, t)


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
    assert first == {"word": len(memo_table(word_module)),
                     "specht": len(memo_table(specht_module))}
    builds.update(word=0, specht=0)
    assert all(r.passed for r in run_suite(3, q_values))
    assert builds == first
    # no check changed a shared module: each equals a fresh build
    for (lam, q0), wm in memo_table(word_module).items():
        fresh = WordModuleRep(lam, q0)
        assert wm.basis == fresh.basis
        for i in range(1, lam.size):
            assert wm.gen_matrix(i) == fresh.gen_matrix(i)
        for m in range(1, lam.size + 1):
            assert jm_matrix(wm, m) == jm_matrix(fresh, m)
    for (lam, q0), rep in memo_table(specht_module).items():
        fresh = SpechtRep(lam, q0)
        assert rep.word_module is word_module(lam, q0)
        assert rep.tableaux == fresh.tableaux and rep.units == fresh.units
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
        "qshuffle.hecke.r2b_embedded", "qshuffle.hecke._regular_module",
        "qshuffle.seminormal.word_module", "qshuffle.seminormal.specht_module",
        "qshuffle.spectra.kernel_basis"}
    assert [name for name, table in saved.items() if not table] == []
    clear_module_cache()
    assert [name for name, table in hecke._TABLES.items() if table] == []
    # each cached symbolic operator has the terms of a fresh build, so no
    # caller changed a shared element
    for fn in (hecke.b2r_embedded, hecke.r2b_embedded, hecke.r2r):
        for args, elem in saved[f"qshuffle.hecke.{fn.__name__}"].items():
            fresh = fn.__wrapped__(*args)
            assert fresh is not elem and fresh.terms == elem.terms, args
    # each cached evaluation of an element on a word or regular module
    # equals one on a freshly built module
    evaluations = [(build, args, module, elem, terms)
                   for build in (word_module, hecke._regular_module)
                   for args, module in saved[
                       f"{build.__module__}.{build.__name__}"].items()
                   for elem, terms in module._elements.items()]
    assert {build for build, *_ in evaluations} == {word_module,
                                                    hecke._regular_module}
    fresh_modules = {}
    for build, args, module, elem, terms in evaluations:
        assert module._elements[elem] is terms  # the key still hashes alike
        if (build, args) not in fresh_modules:
            fresh_modules[build, args] = build.__wrapped__(*args)
        fresh = fresh_modules[build, args]
        assert terms == fresh._int_terms(fresh._terms_at(elem)), args
    clear_module_cache()


def test_idempotent_failure_names_shape_tableau_and_q(monkeypatch):
    lam, bad = Partition((2, 1)), superstandard(Partition((2, 1)))
    original = WordModuleRep.idempotent_int_matrix

    def wrong(self, t):  # p_t + E_00, with p_t = mat / d
        d, mat = original(self, t)
        if self.lam == lam and t == bad:
            mat[0][0] += d
        return d, mat

    monkeypatch.setattr(WordModuleRep, "idempotent_int_matrix", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    failed = [k for k, r in report.items() if not r.passed]
    assert failed == ["idempotents[q=7/5]"]
    detail = report["idempotents[q=7/5]"].detail
    assert detail.startswith("CheckFailed: p_t p_t = p_t fails")
    assert f"t = {bad} on W^{lam} at q0 = 7/5" in detail
    assert "(row, col) (" in detail


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
        for t, unit in zip(rep.tableaux, rep.units):
            image = linalg.vec_mat(unit, total)
            if image != unit:
                index = next(i for i, (x, y) in enumerate(zip(image, unit))
                             if x != y)
                raise CheckFailed(
                    f"w_t p_lambda = w_t fails for t = {t} {where}, first "
                    f"difference at index {index}")
        if n <= 4:
            everything = zero
            for mu in partitions_of(n):
                shape_mats = mats if mu == lam else [
                    idempotent_matrix(wm, t) for t in enumerate_syt(mu)]
                for m in shape_mats:
                    everything = mat_add(everything, m)
            require_equal(everything, identity(wm.dim),
                          f"sum of p_t over all tableaux of size {n} = 1 "
                          f"fails {where}")
    return True


def _last_of_own_shape(wm, t, index=-1):
    """t is the last (or index-th) tableau of shape lambda, for lambda
    neither a row nor a column, so that the checks of earlier shapes pass
    first."""
    lam = wm.lam
    return (lam.parts[0] < lam.size and len(lam.parts) < lam.size
            and t == enumerate_syt(lam)[index])


def _plus_e_cc(wm, t, d, mat):  # p_t + E_cc, t first, c the middle index
    if _last_of_own_shape(wm, t, 0):
        mat[wm.dim // 2][wm.dim // 2] += d
    return d, mat


def _zeroed(wm, t, d, mat):
    if _last_of_own_shape(wm, t):
        mat = [[0] * len(row) for row in mat]
    return d, mat


def _row_shape_zeroed(wm, t, d, mat):  # only the completeness sum sees it
    if wm.lam.size > 1 and t == enumerate_syt(Partition([wm.lam.size]))[0] \
            and wm.lam.parts != (wm.lam.size,):
        mat = [[0] * len(row) for row in mat]
    return d, mat


def _doubled(wm, t, d, mat):
    if _last_of_own_shape(wm, t):
        mat = [[2 * x for x in row] for row in mat]
    return d, mat


def _plus_first(wm, t, d, mat):  # p_t + p_s, s the first of t's shape
    first = enumerate_syt(wm.lam)[0]
    if _last_of_own_shape(wm, t) and t != first:
        d_s, mat_s = wm.idempotent_int_matrix(first)
        d, mat = d * d_s, [[d_s * x + d * y for x, y in zip(row, row_s)]
                           for row, row_s in zip(mat, mat_s)]
    return d, mat


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
        original = WordModuleRep.idempotent_int_matrix
        monkeypatch.setattr(WordModuleRep, "idempotent_int_matrix",
                            lambda self, t: inject(self, t, *original(self, t)))
    seen = set()
    for n in range(1, 5):
        for q0 in Q_VALUES:
            got = _outcome(check_idempotents, n, q0)
            assert got == _outcome(fraction_check_idempotents, n, q0), (n, q0)
            if got is not True:
                seen.add(next(f for f in failures if got.startswith(f)))
    assert seen == failures


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
