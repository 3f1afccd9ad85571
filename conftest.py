"""Load every qshuffle layer in the pytest process before any test module.

perfbench/test_perfbench.py snapshots the bindings of every loaded qshuffle
module when it is imported, and imports ``qshuffle.cli`` to load them all.
The CLI now loads each command's layers only when that command runs, so the
layers are imported here instead; the suite under ``tests/`` imports them
all anyway.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))

import qshuffle  # noqa: E402

for _module in pkgutil.iter_modules(qshuffle.__path__):
    importlib.import_module(f"qshuffle.{_module.name}")
