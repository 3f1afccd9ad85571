import math
import random
from fractions import Fraction

import pytest

from conftest import regular_matrix
from qshuffle import linalg, markov, spectra, verify
from qshuffle.hecke import HeckeElement, r2r
from qshuffle.qpoly import qint
from qshuffle.seminormal import word_module
from qshuffle.symmetric import all_permutations
from qshuffle.tableaux import Partition
from qshuffle.verify import (CheckFailed, check_mallows_stationarity,
                             check_second_eigenvalue, check_walk_spectrum)


def test_uniform_case():
    # q = 1, n = 2: both states equally likely after one step
    mat = markov.transition_matrix(2, 1)
    assert mat == [[Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2]
    assert markov.mallows(2, 1) == [Fraction(1, 2), Fraction(1, 2)]


def test_mallows_weights():
    # n = 2, q = 2: pi = (1/3, 2/3)
    assert markov.mallows(2, 2) == [Fraction(1, 3), Fraction(2, 3)]
    for n in range(1, 5):
        for q0 in (1, 2, Fraction(3, 2)):
            pi = markov.mallows(n, q0)
            assert sum(pi) == 1
            assert len(pi) == math.factorial(n)
            qfactorial = math.prod(qint(k).eval(q0) for k in range(1, n + 1))
            assert pi[0] * qfactorial == 1  # identity weight


def test_subunit_q_rejected():
    with pytest.raises(markov.SubunitQ):
        markov.transition_matrix(3, Fraction(1, 2))


@pytest.mark.parametrize("q0", [1, 2, 3])
def test_stochastic_and_stationary(q0):
    for n in range(1, 5):
        assert check_mallows_stationarity(n, q0)


@pytest.mark.parametrize("q0", [1, 2])
def test_walk_spectrum_matches_formula(q0):
    for n in range(1, 5):
        assert check_walk_spectrum(n, q0)


@pytest.mark.parametrize("q0", [1, 2, 3])
def test_second_eigenvalue(q0):
    for n in range(3, 5):
        assert check_second_eigenvalue(n, q0)


def with_moved_entry(monkeypatch, n, q0, src, dst):
    """Make the built rows of r2r(n) on the regular module at q0 move the
    entry at src = (row, col) onto dst, added to what is there; returns the
    moved value of M."""
    reg = word_module(Partition((1,) * n), q0)
    d, rows = reg._built(r2r(n))
    out = [dict(row) for row in rows]
    x = out[src[0]].pop(src[1])
    out[dst[0]][dst[1]] = out[dst[0]].get(dst[1], 0) + x
    monkeypatch.setitem(reg._elements, r2r(n),
                        (d, [tuple(row.items()) for row in out]))
    return Fraction(x, d)


def test_mallows_stationarity_failure_names_the_row(monkeypatch):
    # row 2 loses its entry in column 0 to row 4: every column sum stays
    mat = markov.transition_matrix(3, 2)
    with_moved_entry(monkeypatch, 3, 2, (2, 0), (4, 0))
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"row 2 of the walk's transition matrix at q0 = 2 is not stochastic: "
        f"its entries sum to {1 - mat[2][0]}, not 1")


def test_mallows_stationarity_failure_names_the_index(monkeypatch):
    # row 4 moves its entry in column 1 to column 3: column 1 loses it
    entry = regular_matrix(r2r(3), Fraction(2))[4][1]
    moved = with_moved_entry(monkeypatch, 3, 2, (4, 1), (4, 3))
    assert moved == entry != 0
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"the Mallows measure is not stationary at q0 = 2: column 1 of the "
        f"regular matrix of r2r sums to {49 - moved}, not [3]_q^2 = 49")


def test_mallows_stationarity_failure_names_the_negative_entry(monkeypatch):
    reg = word_module(Partition((1,) * 3), 2)
    d, rows = reg._built(r2r(3))
    monkeypatch.setitem(reg._elements, r2r(3),
                        (d, [tuple((j, -c) for j, c in row) for row in rows]))
    j, c = rows[0][0]
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"entry (0, {j}) of the walk's transition matrix at q0 = 2 is "
        f"negative: M_ij = {Fraction(-c, d)}")


def with_t1_fault(monkeypatch):
    """r2r(n) + T_1 wherever verify and markov read R_n."""
    def wrong(n):
        return r2r(n) + HeckeElement.one(n)
    monkeypatch.setattr(verify, "r2r", wrong)
    monkeypatch.setattr(markov, "r2r", wrong)


def test_mallows_t1_fault_fails_the_identity_and_the_rows(monkeypatch):
    # R_3 + T_1: eps gains 1, and each column of M gains 1 on the diagonal
    with_t1_fault(monkeypatch)
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"the trivial character of r2r at n = 3 is {qint(3) ** 2 + 1}, not "
        f"[3]_q^2 = {qint(3) ** 2}")
    with pytest.raises(CheckFailed) as err:
        verify._require_mallows_rows(3, Fraction(2))
    assert str(err.value) == (
        "the Mallows measure is not stationary at q0 = 2: column 0 of the "
        "regular matrix of r2r sums to 50, not [3]_q^2 = 49")


def test_mallows_coefficient_outside_n_of_q_minus_1_names_w(monkeypatch):
    # the coefficient of T_{s_1} drops to -1: negative near q = 1
    s1 = HeckeElement.t_word([1], 3)
    (w, c), = s1.terms.items()
    wrong = r2r(3) - s1.scale(r2r(3).terms[w] + 1)
    monkeypatch.setattr(verify, "r2r", lambda n: wrong)
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"the coefficient of T_w in r2r for w = {w} at n = 3 is -1, not in "
        f"N[q - 1]")


def dense_stationarity_oracle(n, q0):
    """The dense check mallows-stationarity made before it read the trivial
    character: P = D^-1 M D / [n]_q^2 from the dense regular matrix M of
    verify's r2r(n), every row of P nonnegative and summing to 1, and
    pi P = pi for the Mallows measure pi."""
    raw = regular_matrix(verify.r2r(n), q0)
    lengths = [w.length() for w in all_permutations(n)]
    norm = qint(n).eval(q0) ** 2
    mat = [[x * q0 ** (lengths[j] - lengths[i]) / norm
            for j, x in enumerate(row)] for i, row in enumerate(raw)]
    weights = [q0 ** k for k in lengths]
    pi = [x / sum(weights) for x in weights]
    return (all(min(row) >= 0 and sum(row) == 1 for row in mat)
            and linalg.vec_mat(pi, mat) == pi)


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("q0", [Fraction(1), Fraction(2), Fraction(3),
                                Fraction(7, 5)])
def test_mallows_stationarity_agrees_with_the_dense_oracle(monkeypatch, q0,
                                                           faulted):
    if faulted:
        with_t1_fault(monkeypatch)
    for n in range(1, 6):
        try:
            verdict = check_mallows_stationarity(n, q0)
        except CheckFailed:
            verdict = False
        assert verdict == dense_stationarity_oracle(n, q0) == (not faulted)


def test_second_eigenvalue_failure_names_value_and_multiplicity(monkeypatch):
    original = spectra.r2r_charpoly_factored

    def wrong(n):  # one more copy of the second-largest eigenvalue
        factors = original(n)
        second = sorted({e.eval(2) for e, _ in factors})[-2]
        return factors + [(e, 1) for e, _ in factors if e.eval(2) == second][:1]

    monkeypatch.setattr(spectra, "r2r_charpoly_factored", wrong)
    with pytest.raises(CheckFailed) as err:
        check_second_eigenvalue(4, Fraction(2))
    expect = (qint(2) * qint(5)).eval(2)
    assert str(err.value) == (
        f"the second-largest eigenvalue of r2r at n = 4, q0 = 2 is {expect} "
        f"with multiplicity 4, against [n-2]_q [n+1]_q = {expect} and "
        f"n - 1 = 3")


def test_tv_curve_decreasing():
    curve = markov.tv_mixing_curve(3, 2, 6)
    assert len(curve) == 7
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    assert curve[0] == 1 - markov.mallows(3, 2)[0]


def test_tv_distance():
    assert markov.tv_distance([Fraction(1), Fraction(0)],
                              [Fraction(0), Fraction(1)]) == 1
    assert markov.tv_distance([Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2) == 0


def test_mixing_csv_format():
    text = markov.mixing_csv([Fraction(1), Fraction(1, 3)])
    lines = text.splitlines()
    assert lines[0] == "step,tv_exact,tv_float"
    assert lines[1] == "0,1/1,1.0"
    assert lines[2].startswith("1,1/3,0.333")


def sample_trajectory(n, q0, steps, seed):
    """Monte-Carlo walk on Lehmer ranks from the identity, one seeded draw
    per step along the rows of the exact transition matrix."""
    rng = random.Random(seed)
    mat = markov.transition_matrix(n, q0)
    state = 0
    path = [state]
    for _ in range(steps):
        r = Fraction(rng.random()).limit_denominator(10 ** 9)
        acc = Fraction(0)
        for j, p in enumerate(mat[state]):
            acc += p
            if r < acc:
                state = j
                break
        path.append(state)
    return path


def test_sample_trajectory_is_seeded():
    a = sample_trajectory(3, 2, 20, seed=7)
    b = sample_trajectory(3, 2, 20, seed=7)
    c = sample_trajectory(3, 2, 20, seed=8)
    assert a == b
    assert len(a) == 21
    assert all(0 <= s < 6 for s in a)
    assert a != c  # overwhelmingly likely distinct paths


def test_transition_matrix_scaling():
    # entries are regular-rep coefficients times q^(l(u)-l(w)) / [n]_q^2
    n, q0 = 3, Fraction(2)
    mat = markov.transition_matrix(n, q0)
    norm = qint(n).eval(q0) ** 2
    raw = regular_matrix(r2r(n), q0)
    lengths = [w.length() for w in all_permutations(n)]
    for i in range(6):
        for j in range(6):
            assert mat[i][j] == raw[i][j] * q0 ** (lengths[j] - lengths[i]) \
                / norm


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(7, 5)])
def test_transition_matrix_matches_the_dense_formula(q0):
    # the sparse build against every entry of the dense regular matrix
    # through the formula, zeros included
    for n in range(1, 5):
        raw = regular_matrix(r2r(n), q0)
        lengths = [w.length() for w in all_permutations(n)]
        norm = qint(n).eval(q0) ** 2
        assert markov.transition_matrix(n, q0) == [
            [x * q0 ** (lengths[j] - lengths[i]) / norm
             for j, x in enumerate(row)] for i, row in enumerate(raw)]


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3), Fraction(7, 5)])
def test_walk_spectrum_agrees_with_the_char_poly_of_the_walk(q0):
    # the old verdict: the char poly of P itself against the formula
    for n in range(2, 5):
        norm = qint(n).eval(q0) ** 2
        expected = linalg.poly_from_roots(
            (value / norm, m) for value, m in spectra.spectrum_at(
                spectra.r2r_charpoly_factored(n), q0).items())
        assert linalg.charpoly(markov.transition_matrix(n, q0)) == expected
        assert check_walk_spectrum(n, q0)


def test_walk_spectrum_failure_names_the_coefficient(monkeypatch):
    original = spectra._regular_witness

    def wrong(module, op, roots):  # tr(R_3^2) moves by 1
        annihilated, traces = original(module, op, roots)
        traces = list(traces)  # the shared list stays intact
        traces[2] += 1
        return annihilated, traces

    monkeypatch.setattr(spectra, "_regular_witness", wrong)
    with pytest.raises(CheckFailed) as err:
        check_walk_spectrum(3, Fraction(2))
    norm = qint(3).eval(2) ** 2
    want = sum(m * (e / norm) ** 2 for e, m in spectra.spectrum_at(
        spectra.r2r_charpoly_factored(3), Fraction(2)).items())
    assert str(err.value) == (
        f"tr((the Mallows walk)^2) at q0 = 2 is "
        f"{want + 1 / norm ** 2}, not the formula's sum of m_E E^2 = {want}")
