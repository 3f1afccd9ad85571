import json
from fractions import Fraction

import pytest

from qshuffle import linalg
from qshuffle.hecke import (HeckeElement, SizeMismatch, annihilator_check, b2r,
                            b2r_embedded, c_op, intermediate_recursion_check,
                            jucys_murphy_scaled, m_alpha, r2b, r2b_embedded,
                            r2r, recursion_check, regular_rep_matrix, top_ops,
                            transposition_word, x_alpha)
from qshuffle.qpoly import ONE, Q, QM1, qint
from qshuffle.symmetric import Composition, Permutation, all_permutations
from qshuffle.verify import (check_bstar_kernel_lift, check_c_factorization,
                             check_hecke_relations_symbolic, check_jm_commute,
                             check_push_through_lemma, run_suite)


def from_word(word, n):
    """The permutation s_{i1} s_{i2} ... of a word."""
    w = Permutation.identity(n)
    for i in word:
        w = w.apply_gen_right(i)
    return w


def star(a):
    """The anti-involution T_w -> T_{w^-1}."""
    return HeckeElement(a.n, {w.inverse(): c for w, c in a.terms.items()})


def tau(a):
    """The automorphism induced by s_i -> s_{n-i}: conjugation by w_0."""
    flip = Permutation(range(a.n, 0, -1))
    return HeckeElement(a.n, {flip * w * flip: c for w, c in a.terms.items()})


def test_hecke_relations_symbolic():
    for n in range(2, 6):
        assert check_hecke_relations_symbolic(n)


def test_t_word_multiplication_cases():
    # length up: T_1 T_2 = T_{s1 s2}
    n = 3
    t1 = HeckeElement.t_word([1], n)
    t12 = t1.mul_gen(2)
    assert t12 == HeckeElement.t_perm(from_word((1, 2), n))
    # length down: T_1 T_1 = q + (q-1) T_1
    sq = t1 * t1
    assert sq == HeckeElement.one(n).scale(Q) + t1.scale(QM1)


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        HeckeElement.one(2) + HeckeElement.one(3)


def test_shuffle_elements_have_unit_coefficients():
    for n in range(1, 5):
        b = b2r(n)
        bs = r2b(n)
        assert len(b.terms) == n and len(bs.terms) == n
        assert all(c == ONE for c in b.terms.values())
        assert all(c == ONE for c in bs.terms.values())
        assert bs == star(b)


def test_top_ops_relate_to_b_ops_by_tau():
    for n in range(2, 5):
        t_op, t_star = top_ops(n)
        assert tau(t_op) == b2r(n)
        assert tau(t_star) == r2b(n)
        assert t_star == star(t_op)


def test_star_is_antiautomorphism():
    x = b2r(3)
    y = HeckeElement.t_word([2, 1], 3)
    assert star(x * y) == star(y) * star(x)


def test_r2r_is_self_star():
    for n in range(1, 5):
        assert star(r2r(n)) == r2r(n)


def test_transposition_word():
    n = 4
    word = transposition_word(2, 4)
    assert from_word(word, n) == Permutation.transposition(2, 4, n)
    assert len(word) == 2 * (4 - 2) - 1


def test_jucys_murphy_at_q1():
    # at q = 1, q^k J_k specializes to the sum of transpositions (i k)
    n, k = 4, 3
    jk = jucys_murphy_scaled(n, k)
    coeffs = {w: c.eval(1) for w, c in jk.terms.items()}
    expected = {Permutation.transposition(i, k, n): Fraction(1)
                for i in range(1, k)}
    assert coeffs == expected


def test_jm_commute():
    for n in range(2, 6):
        assert check_jm_commute(n)


def test_recursion_identity():
    for n in range(2, 6):
        assert recursion_check(n)
        assert intermediate_recursion_check(n)


def test_push_through_lemma():
    for n in range(2, 6):
        assert check_push_through_lemma(n)


def test_c_factorization():
    for n in range(1, 6):
        assert check_c_factorization(n)


def test_c_zero_is_full_shuffle_product():
    n = 3
    assert c_op(n, n) == HeckeElement.one(n)
    assert c_op(0, n) == b2r_embedded(1, n) * b2r_embedded(2, n) * b2r(n)


def test_m_alpha_full_group_and_x_trivial():
    n = 3
    full = m_alpha(Composition([n]))
    assert full == sum((HeckeElement.t_perm(w) for w in all_permutations(n)),
                       HeckeElement.zero(n))
    assert x_alpha(Composition([1] * n)) == full


def test_annihilating_polynomial():
    for n in range(2, 6):
        assert annihilator_check(b2r(n), n)
        assert annihilator_check(r2b(n), n)


def test_regular_rep_is_multiplicative():
    n, q0 = 3, Fraction(2)
    a = b2r(n)
    b = r2b(n)
    ma, mb = regular_rep_matrix(a, q0), regular_rep_matrix(b, q0)
    assert regular_rep_matrix(b * a, q0) == [linalg.vec_mat(row, ma)
                                             for row in mb]


def test_regular_rep_row_sums():
    # row sums of R_n at q=1 all equal n^2 (doubly-stochastic scaling)
    n = 3
    mat = regular_rep_matrix(r2r(n), Fraction(1))
    assert all(sum(row) == n * n for row in mat)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(1, 2), Fraction(7, 5),
                                Fraction(1)])
@pytest.mark.parametrize("n", [3, 4])
def test_regular_rep_rows_are_symbolic_products(n, q0):
    # row r is T_{w_r} * a multiplied out symbolically, then evaluated
    perms = all_permutations(n)
    for a in (r2r(n), b2r(n), r2b(n), m_alpha(Composition([1, 1, n - 2]))):
        for w, row in zip(perms, regular_rep_matrix(a, q0)):
            expect = [Fraction(0)] * len(perms)
            for u, c in (HeckeElement.t_perm(w) * a).terms.items():
                expect[u.lehmer_rank()] = c.eval(q0)
            assert row == expect


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(7, 5)])
@pytest.mark.parametrize("n", [3, 4])
def test_bstar_kernel_lift(n, q0):
    assert check_bstar_kernel_lift(n, q0)


def test_json_serialization_sorted_by_rank():
    a = b2r(3)
    data = a.to_json()
    ranks = [Permutation(entry["perm"]).lehmer_rank()
             for entry in data["terms"]]
    assert ranks == sorted(ranks)
    assert data["n"] == 3
    json.dumps(data)  # serializable


def test_full_sum_of_lengths():
    # sum over S_n of q^l(w) = [n]!_q, via m_(n) coefficients
    n = 4
    total = sum((HeckeElement.t_perm(w).scale(Q ** w.length())
                 for w in all_permutations(n)), HeckeElement.zero(n))
    qfactorial = ONE
    for k in range(2, n + 1):
        qfactorial = qfactorial * qint(k)
    assert sum(total.terms.values(), -qfactorial).is_zero()


def test_bstar_kernel_lift_failure_names_j_and_kernel_vector(monkeypatch):
    original, last = linalg.left_kernel, []

    def wrong(matrix):  # perturbs ker B*_2 in H_3 only
        basis = original(matrix)
        if len(matrix) == 6:
            basis[-1][0] += 1
            last.append(len(basis) - 1)
        return basis

    monkeypatch.setattr(linalg, "left_kernel", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["bstar-kernel-lift[q=7/5]"].detail
    assert detail.startswith(f"CheckFailed: the lift of kernel vector "
                             f"{last[0]} of B*_2 is not a B*_3-eigenvector "
                             f"with eigenvalue [1]_q for j = 2 at q0 = 7/5, "
                             f"first difference at index ")
