import math
from fractions import Fraction

import pytest

from qshuffle.hecke import clear_module_cache
from qshuffle.linalg import _dense, _times
from qshuffle.seminormal import word_module
from qshuffle.tableaux import Partition


@pytest.fixture(autouse=True)
def forget_builds_made_under_monkeypatch(request):
    """A test that monkeypatches a layer may leave builds made by the patched
    code in the shared memo tables; forget them before the next test.  The
    functools.lru_cache tables of pure partition and tableau combinatorics
    are not cleared: no test patches what they call."""
    yield
    if "monkeypatch" in request.fixturenames:
        clear_module_cache()


def fraction_matrix(module, built):
    """The dense Fraction matrix rows / d of a built (d, rows) of module."""
    d, rows = built
    return [[Fraction(x, d) for x in row] for row in _dense(rows, module.dim)]


def hecke_matrix(module, elem):
    """Dense Fraction matrix of right multiplication by elem on module."""
    return fraction_matrix(module, module._built(elem))


def word_matrix(module, word):
    """Dense Fraction matrix of T_{s_i1} T_{s_i2} ... on module."""
    return fraction_matrix(module, module.word_rows(word))


def swapped_word_gen_rows(words, q0):
    """seminormal.word_gen_rows with its two unequal-letter cases swapped:
    w_i < w_{i+1} takes q (w s_i) + (q-1) w and w_i > w_{i+1} takes w s_i.
    A plausible convention fault; at q0 = 1 both cases give w s_i."""
    q0 = Fraction(q0)
    index = {w: k for k, w in enumerate(words)}
    gen_rows = {}
    for i in range(1, len(words[0])):
        rows = []
        for k, w in enumerate(words):
            a, b = w[i - 1], w[i]
            if a == b:
                rows.append([(k, q0)])
                continue
            j = index[w[:i - 1] + (b, a) + w[i + 1:]]
            rows.append([(j, q0), (k, q0 - 1)] if a < b
                        else [(j, Fraction(1))])
        gen_rows[i] = rows
    return gen_rows


def regular_matrix(a, q0):
    """Dense matrix of right multiplication by the HeckeElement a on the T_w
    basis at q0, rows and columns in Lehmer-rank order: row r holds
    T_{w_r} a.  Read from the shared regular module W^(1^n), so an
    inadmissible q0 raises InadmissibleQ."""
    return hecke_matrix(word_module(Partition((1,) * a.n), q0), a)


# Dense integer matrix algebra, the oracle for the identities verify now
# checks on T_1 in the regular module, and that the package no longer uses.

def int_mat_mul(a, b):
    """Product of integer matrices: each row of a times the sparse rows of
    b, by the row product."""
    rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    return [_times(row, rows, len(b[0])) for row in a]


def lcm_sum(forms):
    """(S, L): S / L is the sum of the M / d over the (M, d) in forms, each
    M an integer matrix as a list of rows (a vector is one row), and L > 0
    the lcm of the d."""
    den = math.lcm(*(d for _, d in forms))
    total = [[0] * len(row) for row in forms[0][0]]
    for mat, d in forms:
        scale = den // d
        for out, row in zip(total, mat):
            for j, x in enumerate(row):
                if x:
                    out[j] += scale * x
    return total, den
