import pytest

from qshuffle.hecke import clear_module_cache


@pytest.fixture(autouse=True)
def forget_builds_made_under_monkeypatch(request):
    """A test that monkeypatches a layer may leave builds made by the patched
    code in the shared memo tables; forget them before the next test.  The
    functools.lru_cache tables of pure partition and tableau combinatorics
    are not cleared: no test patches what they call."""
    yield
    if "monkeypatch" in request.fixturenames:
        clear_module_cache()
