import math
import random
from fractions import Fraction

import pytest

from qshuffle import markov, spectra
from qshuffle.qpoly import qint
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


def test_mallows_stationarity_failure_names_the_row(monkeypatch):
    original = markov.transition_matrix

    def wrong(n, q0):  # row 4 loses a third of its mass
        mat = original(n, q0)
        mat[4] = [x * Fraction(2, 3) for x in mat[4]]
        return mat

    monkeypatch.setattr(markov, "transition_matrix", wrong)
    least = min(wrong(3, 2)[4])
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"row 4 of the walk's transition matrix at q0 = 2 is not stochastic: "
        f"its entries sum to 2/3, least entry {least}")


def test_mallows_stationarity_failure_names_the_index(monkeypatch):
    original = markov.transition_matrix

    def wrong(n, q0):  # still stochastic: rows 0 and 1 trade places
        mat = original(n, q0)
        mat[0], mat[1] = mat[1], mat[0]
        return mat

    monkeypatch.setattr(markov, "transition_matrix", wrong)
    mat, pi = wrong(3, 2), markov.mallows(3, 2)
    moved = [sum(pi[i] * mat[i][j] for i in range(6)) for j in range(6)]
    j = next(j for j in range(6) if moved[j] != pi[j])
    with pytest.raises(CheckFailed) as err:
        check_mallows_stationarity(3, Fraction(2))
    assert str(err.value) == (
        f"the Mallows measure is not stationary at q0 = 2: "
        f"(pi P)_{j} = {moved[j]}, pi_{j} = {pi[j]}")


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
    from qshuffle.hecke import r2r, regular_rep_matrix
    from qshuffle.symmetric import all_permutations
    raw = regular_rep_matrix(r2r(n), q0)
    lengths = [w.length() for w in all_permutations(n)]
    for i in range(6):
        for j in range(6):
            assert mat[i][j] == raw[i][j] * q0 ** (lengths[j] - lengths[i]) \
                / norm
