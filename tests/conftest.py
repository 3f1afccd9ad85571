from fractions import Fraction

import pytest

from qshuffle.hecke import clear_module_cache
from qshuffle.linalg import _dense
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


def regular_matrix(a, q0):
    """Dense matrix of right multiplication by the HeckeElement a on the T_w
    basis at q0, rows and columns in Lehmer-rank order: row r holds
    T_{w_r} a.  Read from the shared regular module W^(1^n), so an
    inadmissible q0 raises InadmissibleQ."""
    return hecke_matrix(word_module(Partition((1,) * a.n), q0), a)
