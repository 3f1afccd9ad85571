import ast
import collections
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathlib

from conftest import hecke_matrix, regular_matrix
from qshuffle import hecke, linalg, spectra, verify
from qshuffle.hecke import (HeckeElement, HeckeModule, SizeMismatch,
                            annihilator_check, b2r, b2r_embedded, c_op,
                            intermediate_recursion_check, jucys_murphy_scaled,
                            m_alpha, r2b, r2b_embedded, r2r, recursion_check,
                            top_ops, transposition_word, x_alpha)
from qshuffle.qpoly import ONE, Q, QM1, ZERO, LaurentPoly, qint
from qshuffle.seminormal import InadmissibleQ, word_gen_rows, word_module
from qshuffle.symmetric import Composition, Permutation, all_permutations
from qshuffle.tableaux import Partition, SkewShape, StandardTableau
from qshuffle.verify import (check_bstar_kernel_lift, check_c_factorization,
                             check_hecke_relations_symbolic, check_jm_commute,
                             check_push_through_lemma, run_suite)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def from_word(word, n):
    """The permutation s_{i1} s_{i2} ... of a word."""
    w = Permutation.identity(n)
    for i in word:
        w = w.apply_gen_right(i)
    return w


def transposition(i, j, n):
    """The permutation of S_n swapping i and j."""
    line = list(range(1, n + 1))
    line[i - 1], line[j - 1] = j, i
    return Permutation(line)


def star(a):
    """The anti-involution T_w -> T_{w^-1}."""
    return HeckeElement(a.n, {
        Permutation(w.one_line.index(v) + 1 for v in range(1, a.n + 1)): c
        for w, c in a.terms.items()})


def tau(a):
    """The automorphism induced by s_i -> s_{n-i}: conjugation by w_0,
    w_0 w w_0 (i) = n + 1 - w(n + 1 - i)."""
    return HeckeElement(a.n, {
        Permutation(a.n + 1 - x for x in reversed(w.one_line)): c
        for w, c in a.terms.items()})


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


def reference_mul_gen(a, i):
    """a T_{s_i} term by term, with general Laurent products c q and
    c (q - 1) where the length goes down."""
    out = HeckeElement.zero(a.n)
    for w, c in a.terms.items():
        wsi = w.apply_gen_right(i)
        if w.one_line[i - 1] < w.one_line[i]:
            out = out + HeckeElement(a.n, {wsi: c})
        else:
            out = out + HeckeElement(a.n, {wsi: c * Q, w: c * QM1})
    return out


def reference_product(a, b):
    """a b as the sum, one term c_w T_w of b at a time, of (a T_w) c_w."""
    total = HeckeElement.zero(a.n)
    for w, c in b.terms.items():
        image = a
        for i in w.reduced_word():
            image = reference_mul_gen(image, i)
        total = total + image.scale(c)
    return total


laurent = st.dictionaries(
    st.integers(-4, 5), st.integers(-1000, 1000), max_size=3).map(LaurentPoly)


@st.composite
def element_pairs(draw):
    n = draw(st.integers(1, 4))
    perms = all_permutations(n)

    def element():
        return HeckeElement(n, draw(st.dictionaries(
            st.sampled_from(perms), laurent, max_size=5)))
    return element(), element()


@settings(max_examples=80, deadline=None)
@given(element_pairs())
def test_product_matches_term_by_term_sum(pair):
    a, b = pair
    assert a * b == reference_product(a, b)
    for i in range(1, a.n):
        assert a.mul_gen(i) == reference_mul_gen(a, i)


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
    assert from_word(word, n) == transposition(2, 4, n)
    assert len(word) == 2 * (4 - 2) - 1


def test_jucys_murphy_at_q1():
    # at q = 1, q^k J_k specializes to the sum of transpositions (i k)
    n, k = 4, 3
    jk = jucys_murphy_scaled(n, k)
    coeffs = {w: c.eval(1) for w, c in jk.terms.items()}
    expected = {transposition(i, k, n): Fraction(1)
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
    ma, mb = regular_matrix(a, q0), regular_matrix(b, q0)
    assert regular_matrix(b * a, q0) == [linalg.vec_mat(row, ma)
                                             for row in mb]


def test_regular_rep_row_sums():
    # row sums of R_n at q=1 all equal n^2 (doubly-stochastic scaling)
    n = 3
    mat = regular_matrix(r2r(n), Fraction(1))
    assert all(sum(row) == n * n for row in mat)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(1, 2),
                                Fraction(7, 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_regular_representation_is_the_word_module_of_one_line_words(n, q0):
    # the construction the shared word module W^(1^n) replaced: a module
    # of its own on the one-line permutations in Lehmer-rank order
    words = [w.one_line for w in all_permutations(n)]
    own = HeckeModule(n, q0, len(words), word_gen_rows(words, q0))
    assert word_module(Partition((1,) * n), q0).basis == words
    for a in (r2r(n), b2r(n), r2b(n),
              m_alpha(Composition([1] * (n // 2) + [n - n // 2])),
              m_alpha(Composition([n]))):
        assert hecke_matrix(own, a) == regular_matrix(a, q0)


@pytest.mark.parametrize("q0", [0, -1])
def test_regular_rep_refuses_inadmissible_q(q0):
    # q0 = 0, or [2]_q = 1 + q vanishing at q0 = -1
    with pytest.raises(InadmissibleQ):
        regular_matrix(b2r(3), q0)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(1, 2), Fraction(7, 5),
                                Fraction(1)])
@pytest.mark.parametrize("n", [3, 4])
def test_regular_rep_rows_are_symbolic_products(n, q0):
    # row r is T_{w_r} * a multiplied out symbolically, then evaluated
    perms = all_permutations(n)
    for a in (r2r(n), b2r(n), r2b(n), m_alpha(Composition([1, 1, n - 2]))):
        for w, row in zip(perms, regular_matrix(a, q0)):
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

    def wrong(matrix):  # perturbs ker B*_2 in H_3 only, by 1 at index 0
        basis = original(matrix)
        if len(matrix) == 6:
            num, den = basis[-1]
            num[0] += den
            last.append(len(basis) - 1)
        return basis

    monkeypatch.setattr(linalg, "left_kernel", wrong)
    report = {r.check_id: r for r in run_suite(3, [Fraction(7, 5)])}
    detail = report["bstar-kernel-lift[q=7/5]"].detail
    assert detail.startswith(f"CheckFailed: the lift of kernel vector "
                             f"{last[0]} of B*_2 is not a B*_3-eigenvector "
                             f"with eigenvalue [1]_q for j = 2 at q0 = 7/5, "
                             f"first difference at index ")


def test_r2r_json_matches_golden():
    text = json.dumps(r2r(4).to_json(), indent=2) + "\n"
    assert text == (GOLDEN / "r2r_n4.json").read_text()


# -- witnesses of the symbolic checks -----------------------------------------

def witness(relation, got, want):
    """The detail a symbolic check reports when got != want: the relation,
    n, the first w in Lehmer order whose coefficients differ, and both."""
    w = next(w for w in all_permutations(got.n)
             if got.terms.get(w, ZERO) != want.terms.get(w, ZERO))
    return (f"CheckFailed: {relation} fails in H_{got.n}: the coefficient of "
            f"T_w for w = {w} is {got.terms.get(w, ZERO)} on the left, "
            f"{want.terms.get(w, ZERO)} on the right")


def symbolic_detail(check_id):
    return {r.check_id: r for r in run_suite(3, [Fraction(2)])}[
        check_id].detail


def test_hecke_relations_failure_names_relation_and_coefficient(monkeypatch):
    monkeypatch.setattr(verify, "Q", Q + ONE)  # q + 1 where q belongs
    t1, one = HeckeElement.t_word([1], 3), HeckeElement.one(3)
    assert symbolic_detail("hecke-relations-symbolic") == witness(
        "quadratic relation T_1 T_1 = (q-1) T_1 + q", t1 * t1,
        t1.scale(Q) + one.scale(Q + ONE))


def test_recursion_failure_names_relation_and_coefficient(monkeypatch):
    original = hecke.jucys_murphy_scaled

    def wrong(n, k):  # q^n J_n + 1 inside the recursion only
        return original(n, k) + HeckeElement.one(n)

    monkeypatch.setattr(hecke, "jucys_murphy_scaled", wrong)
    bn = b2r(3)
    inner = ((r2b_embedded(2, 3) * b2r_embedded(2, 3)).scale(Q)
             + HeckeElement.one(3).scale(qint(3)) + wrong(3, 3))
    assert symbolic_detail("recursion") == witness(
        "B_n R_n = (q R_{n-1} + [n]_q + q^n J_n) B_n", bn * r2r(3),
        inner * bn)


def test_push_through_failure_names_relation_and_coefficient(monkeypatch):
    monkeypatch.setattr(verify, "Q", Q + ONE)
    bstar, b = r2b_embedded(2, 3), b2r_embedded(2, 3)
    assert symbolic_detail("push-through-lemma") == witness(
        "push-through lemma B*_{n-1} T_{n-1} B_{n-1} B_n = q R_{n-1} B_n",
        bstar.mul_gen(2) * b * b2r(3), (bstar * b * b2r(3)).scale(Q + ONE))


def test_c_factorization_failure_names_relation_and_coefficient(monkeypatch):
    original = verify.x_alpha

    def wrong(alpha):  # x_alpha + T_1
        return original(alpha) + HeckeElement.t_word([1], alpha.n)

    monkeypatch.setattr(verify, "x_alpha", wrong)
    full = Composition([3])
    assert symbolic_detail("c-factorization") == witness(
        "C_0 = m_(3) x_(3)", c_op(0, 3), m_alpha(full) * wrong(full))


def test_annihilating_polynomial_failure_names_element(monkeypatch):
    monkeypatch.setattr(verify, "b2r", lambda n: b2r(n) + HeckeElement.one(n))
    prod = HeckeElement.one(3)
    for j in (0, 2, 3):
        prod = prod * (b2r(3) + HeckeElement.one(3)
                       - HeckeElement.one(3).scale(qint(3 - j)))
    assert symbolic_detail("annihilating-polynomial") == witness(
        "prod_(j != 1) (B_n - [n-j]_q) = 0", prod, HeckeElement.zero(3))


def test_jm_commute_failure_names_pair_and_coefficient(monkeypatch):
    original = verify.jucys_murphy_scaled

    def wrong(n, k):  # q^2 J_2 + T_2 no longer commutes with q^3 J_3
        extra = HeckeElement.t_word([2], n) if k == 2 else HeckeElement.zero(n)
        return original(n, k) + extra

    monkeypatch.setattr(verify, "jucys_murphy_scaled", wrong)
    a, b = wrong(3, 2), wrong(3, 3)
    assert a * b != b * a
    assert symbolic_detail("jucys-murphy-commute") == witness(
        "(q^2 J_2)(q^3 J_3) = (q^3 J_3)(q^2 J_2)", a * b, b * a)


@pytest.mark.parametrize("call, message", [
    (lambda: hecke._require_equal(([1, 2, 3], 1), ([1, 5, 3], 1), "v"),
     "v, first difference at index 1"),
    (lambda: hecke._require_equal(([[1, 2], [3, 4]], 1),
                                  ([[1, 2], [3, 5]], 1), "m"),
     "m, first difference at (row, col) (1, 1)"),
    (lambda: hecke._require_equal(([1, 2, 3], 2), ([2, 4, 5], 4), "v"),
     "v, first difference at index 2"),
    (lambda: hecke._require_zero(([0, 0, 7, 1], 3), "z"),
     "z, first nonzero index 2")])
def test_vector_and_matrix_witnesses(call, message):
    with pytest.raises(hecke.CheckFailed) as err:
        call()
    assert str(err.value) == message


def test_equal_vectors_and_zero_pass():
    assert hecke._require_equal(([1, 2], 3), ([1, 2], 3), "v") is None
    assert hecke._require_equal(([[1], [2]], 1), ([[1], [2]], 1), "m") is None
    assert hecke._require_zero(([0, 0], 1), "z") is None


def test_callable_wording_is_called_only_on_failure():
    calls = []

    def what():
        calls.append(1)
        return "v"

    one = HeckeElement.one(2)
    assert hecke._require_equal(([1, 2], 1), ([1, 2], 1), what) is None
    assert hecke._require_zero(([0, 0], 1), what) is None
    assert hecke._require_same(one, one, what) is True
    assert calls == []
    for call, message in (
            (lambda: hecke._require_equal(([1, 2], 1), ([1, 3], 1), what),
             "v, first difference at index 1"),
            (lambda: hecke._require_zero(([0, 4], 1), what),
             "v, first nonzero index 1"),
            (lambda: hecke._require_same(one, one.scale(Q), what),
             "v fails in H_2: the coefficient of T_w for w = [1,2] is 1 on "
             "the left, q on the right")):
        with pytest.raises(hecke.CheckFailed) as err:
            call()
        assert str(err.value) == message
    assert calls == [1, 1, 1]


def test_passing_run_formats_no_witness(monkeypatch):
    # every witness is worded inside the branch that raises, so a run whose
    # checks all pass formats no partition, tableau, permutation or
    # Laurent polynomial
    formatted = []
    for cls, name in ((Partition, "__repr__"), (SkewShape, "__repr__"),
                      (StandardTableau, "__repr__"),
                      (Permutation, "__repr__"), (Composition, "__repr__"),
                      (LaurentPoly, "__str__")):
        def counted(self, original=getattr(cls, name)):
            formatted.append(type(self).__name__)
            return original(self)
        monkeypatch.setattr(cls, name, counted)
    results = run_suite(3, [Fraction(2), Fraction(7, 5)])
    assert all(r.passed for r in results)
    assert formatted == []


def test_every_check_returns_true_or_raises():
    """verify.py has one failure path: no function in it returns False or
    None (a bare return included), and every check_* ends in return True,
    so a failing check can only raise CheckFailed with its witness."""
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return):
                text = ast.unparse(node)
                assert text not in ("return", "return None", "return False"), \
                    f"{fn.name}: {text} at line {node.lineno}"
    checks = [f for f in functions if f.name.startswith("check_")]
    assert len(checks) >= 20
    for fn in checks:
        assert ast.unparse(fn.body[-1]) == "return True", fn.name


def test_no_assert_in_the_package():
    """Every failure is an explicit CheckFailed (or another named error):
    no module of the package has an assert statement, which python -O
    strips, or raises a bare AssertionError."""
    package = pathlib.Path(hecke.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 12
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            assert not isinstance(node, ast.Assert), \
                f"{path.name}: assert at line {node.lineno}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = (node.exc.func if isinstance(node.exc, ast.Call)
                          else node.exc)
                assert ast.unparse(raised) != "AssertionError", \
                    f"{path.name}: AssertionError at line {node.lineno}"


def _names(node):
    """Every name node uses: variables, attributes and imported names."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else
        n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias)))


def test_every_public_name_is_used_in_the_package():
    """No dead helpers: every public top-level def or class of a package
    module is named in some package module outside its own definition."""
    package = pathlib.Path(hecke.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    named = sum((_names(tree) for tree in trees.values()),
                collections.Counter())
    unused = [f"{module}: {node.name}"
              for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and named[node.name] == _names(node)[node.name]]
    assert unused == []


def test_disagreeing_eigenvalue_forms_name_the_strip(monkeypatch):
    # shifting every q-content by 1 breaks the first form only, so
    # positivity-degree fails at the first strip, (2)/(2), with both forms
    content = spectra.q_content
    monkeypatch.setattr(spectra, "q_content", lambda shape: content(shape) + ONE)
    report = {r.check_id: r for r in run_suite(2, [Fraction(2)])}
    row = report["positivity-degree"]
    assert not row.passed
    assert row.detail == (
        "CheckFailed: the two forms of E_lambda/mu disagree for lambda = (2), "
        "mu = (2): q^n c_lambda/mu(q) + sum_k q^(n-k) [k]_q = q^2, "
        "sum_k q^(n-k) [content_k + k]_q = 0")


def fraction_require_equal(got, want, what):
    """_require_equal as it was on Fraction vectors and matrices: the
    oracle for the first index or (row, col) of the form-based one."""
    if got != want:
        where = (f"(row, col) {hecke._first_cell(got, want)}"
                 if got and isinstance(got[0], list)
                 else f"index {hecke._first_index(got, want)}")
        raise hecke.CheckFailed(f"{what}, first difference at {where}")


def fraction_require_zero(v, what):
    j = next((j for j, x in enumerate(v) if x), None)
    if j is not None:
        raise hecke.CheckFailed(f"{what}, first nonzero index {j}")


def raised(call):
    try:
        call()
    except hecke.CheckFailed as exc:
        return str(exc)
    return None


def matrix_form(rows):
    """The reduced form (integer rows, den) of a Fraction matrix, read as
    one vector."""
    num, den = linalg._ints([x for row in rows for x in row])
    width = len(rows[0])
    return [num[i:i + width] for i in range(0, len(num), width)], den


small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_form_witnesses_name_the_fraction_index(rows, cols, data):
    # equal values give equal reduced forms, and a difference is named at
    # the index, or (row, col), where the Fraction versions name it
    a = data.draw(st.lists(small, min_size=rows * cols,
                           max_size=rows * cols))
    changed = data.draw(st.dictionaries(st.integers(0, rows * cols - 1),
                                        small, max_size=2))
    b = [changed.get(i, x) for i, x in enumerate(a)]
    assert raised(lambda: hecke._require_equal(
        linalg._ints(a), linalg._ints(b), "v")) == raised(
        lambda: fraction_require_equal(a, b, "v"))
    assert raised(lambda: hecke._require_zero(linalg._ints(a), "z")) \
        == raised(lambda: fraction_require_zero(a, "z"))
    ma = [a[i:i + cols] for i in range(0, len(a), cols)]
    mb = [b[i:i + cols] for i in range(0, len(b), cols)]
    assert raised(lambda: hecke._require_equal(
        matrix_form(ma), matrix_form(mb), "m")) == raised(
        lambda: fraction_require_equal(ma, mb, "m"))
