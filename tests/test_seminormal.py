from fractions import Fraction

import pytest

from qshuffle import linalg
from qshuffle.hecke import r2r
from qshuffle.qpoly import qint
from qshuffle.seminormal import (InadmissibleQ, SpechtRep, WordModuleRep,
                                 check_admissible, content_classes,
                                 content_words, dipper_james_action, phi_apply,
                                 phi_map)
from qshuffle.tableaux import (Partition, SkewShape, enumerate_syt, f_lambda,
                               superstandard)
from qshuffle.verify import (check_dominance_vanishing, check_idempotents,
                             check_phi_morphism, check_projection_compat,
                             check_seminormal_action, check_tower_rule,
                             check_word_module_relations)

Q_VALUES = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(7, 5)]


def test_admissibility():
    assert check_admissible(2, 5) == Fraction(2)
    with pytest.raises(InadmissibleQ):
        check_admissible(0, 3)
    with pytest.raises(InadmissibleQ):
        check_admissible(-1, 2)  # [2]_{-1} = 0


def test_content_classes():
    assert content_classes(1) == [0]
    assert content_classes(2) == [-1, 1]
    assert content_classes(3) == [-2, -1, 1, 2]
    assert content_classes(4) == [-3, -2, -1, 0, 1, 2, 3]


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
        g = rep.gen_action_matrix(i)
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
