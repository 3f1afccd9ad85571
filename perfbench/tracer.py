"""In-process tracer for the qshuffle layers, installed from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps the public
functions of each layer module and the public methods of the classes it
defines, plus a few dunder methods that are real layer boundaries.  Several
modules bind names with ``from ... import``, so a wrapper replaces its
original by object identity in every ``qshuffle.*`` namespace, not only in
the defining module.  ``Tracer.restore`` puts every binding back.

Each call becomes one span (site, start, end, parent) kept in memory; a
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("qpoly", "hecke", "seminormal", "linalg", "spectra", "markov",
          "flags", "verify")

# Dunder methods wrapped besides the public names: constructors of the
# module objects whose builds are counted, and the symbolic Hecke product.
DUNDERS = {
    "hecke.HeckeElement.__mul__",
    "seminormal.WordModuleRep.__init__",
    "seminormal.SpechtRep.__init__",
    "flags.FlagSpace.__init__",
}

# Public names left unwrapped.  Each is called once per term or per basis
# vector inside a wrapped caller, so a span around it would cost more than
# the work it measures; its time stays in the caller's self time.
SKIP = {
    "qpoly.LaurentPoly.zero", "qpoly.LaurentPoly.one",
    "qpoly.LaurentPoly.const", "qpoly.LaurentPoly.q_power",
    "qpoly.LaurentPoly.is_zero", "qpoly.LaurentPoly.scale",
    "qpoly.LaurentPoly.shift",
    "hecke.HeckeElement.mul_gen",
    "seminormal.WordModuleRep.apply_gen",
    "seminormal.WordModuleRep.basis_vector",
    "linalg.zeros",
}

# Sites whose calls also record a hashable key computed from the arguments;
# each key function takes the same arguments as the function it watches.
KEYS = {
    "seminormal.WordModuleRep.__init__":
        lambda self, lam, q0: (lam.parts, Fraction(q0)),
    "seminormal.SpechtRep.__init__":
        lambda self, lam, q0: (lam.parts, Fraction(q0)),
    "spectra.build_eigenbasis": lambda lam, q0: (lam.parts, Fraction(q0)),
    "spectra.kernel_basis": lambda lam, q0: (lam.parts, Fraction(q0)),
    "hecke.b2r": lambda n: n,
    "hecke.r2b": lambda n: n,
    "hecke.r2r": lambda n: n,
    "linalg.charpoly": lambda matrix: len(matrix),
    "linalg.rref": lambda matrix: (len(matrix),
                                   len(matrix[0]) if matrix else 0),
}


class Tracer:
    """Spans of one traced run; a context manager around install/restore."""

    def __init__(self, workload="", run=0):
        self.workload = workload
        self.run = run
        self.sites = []   # site index -> (layer, name)
        self.spans = []   # (site index, start, end, parent span index or -1)
        self.keys = {}    # site index -> list of call keys
        self._stack = [-1]
        self._undo = []   # (module or class, attribute, original object)

    # -- recording ----------------------------------------------------

    def wrap(self, fn, layer, name, key=None):
        """A wrapper recording one span per call of fn."""
        site = len(self.sites)
        self.sites.append((layer, name))
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = None if key is None else self.keys.setdefault(site, [])

        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(key(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (site, start, end, parent)

        return functools.update_wrapper(traced, fn)

    # -- install / restore --------------------------------------------

    def install(self):
        """Wrap every traced site; returns self."""
        replaced = {}  # id(original function) -> its wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"qshuffle.{layer}")
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        replaced[id(obj)] = self.wrap(
                            obj, layer, name, KEYS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "qshuffle" and not modname.startswith("qshuffle."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def _wrap_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            if attr.startswith("_") and name not in DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(raw.__func__, layer, name,
                                                 KEYS.get(name)))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(raw, layer, name, KEYS.get(name))
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def restore(self):
        """Put back every binding that install replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis -----------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the child spans' durations."""
        child = [0.0] * len(self.spans)
        for _site, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_site, start, end, _parent), c in zip(self.spans, child)]

    def summary(self):
        """Calls, self time and keys per site name, self time per layer."""
        sites = {name: {"calls": 0, "self_s": 0.0, "keys": []}
                 for _layer, name in self.sites}
        layers = {}
        for (site, _s, _e, _p), own in zip(self.spans, self.self_times()):
            layer, name = self.sites[site]
            entry = sites[name]
            entry["calls"] += 1
            entry["self_s"] += own
            layers[layer] = layers.get(layer, 0.0) + own
        for site, keys in self.keys.items():
            sites[self.sites[site][1]]["keys"].extend(keys)
        return sites, layers

    def dump(self, path):
        """Write every span as one tab-separated line, gzipped."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("id\tname\tlayer\tstart\tend\tparent\tworkload\trun\n")
            for idx, (site, start, end, parent) in enumerate(self.spans):
                layer, name = self.sites[site]
                handle.write(f"{idx}\t{name}\t{layer}\t{start - origin:.9f}\t"
                             f"{end - origin:.9f}\t{parent}\t{self.workload}\t"
                             f"{self.run}\n")
