"""Partitions, skew shapes, and standard Young tableaux.

Cells are (row, col), 1-based, English notation (row 1 on top); the content
of a cell is col - row.  Skew tableaux of shape lambda/mu are filled with
|mu|+1, ..., |lambda|.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .qpoly import LaurentPoly, qint


class ShapeMismatch(ValueError):
    pass


class Partition:
    """Weakly decreasing tuple of positive parts (possibly empty)."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p)
        if any(p < 1 for p in parts):
            raise ValueError(f"negative part: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i] if i < len(self.parts) else 0

    def __iter__(self):
        return iter(self.parts)

    def cells(self):
        return [(r + 1, c + 1)
                for r, p in enumerate(self.parts) for c in range(p)]

    def contains(self, other):
        return all(other[i] <= self[i] for i in range(len(other.parts)))

    def dominates(self, other):
        """self >= other in dominance order (same size)."""
        a = b = 0
        for i in range(max(len(self.parts), len(other.parts))):
            a += self[i]
            b += other[i]
            if a < b:
                return False
        return True

    def removable_corners(self):
        """Cells whose removal leaves a partition, as smaller partitions."""
        out = []
        for i, p in enumerate(self.parts):
            if i + 1 == len(self.parts) or self.parts[i + 1] < p:
                smaller = list(self.parts)
                smaller[i] -= 1
                out.append(Partition(smaller))
        return out

    def addable_contents(self):
        """Contents of the cells whose addition leaves a partition, top
        row first: a cell added to row r (1-based) has content
        self[r-1] + 1 - r."""
        return [self[i] - i for i in range(len(self.parts) + 1)
                if i == 0 or self.parts[i - 1] > self[i]]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"({','.join(map(str, self.parts))})"

    def to_json(self):
        return list(self.parts)


def partitions_of(n):
    """All partitions of n, in reverse lexicographic order."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n)]


class SkewShape:
    """Cellwise difference outer/inner with inner contained in outer."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner=Partition()):
        if not outer.contains(inner):
            raise ShapeMismatch(f"{inner} not contained in {outer}")
        self.outer = outer
        self.inner = inner

    @property
    def size(self):
        return self.outer.size - self.inner.size

    def cells(self):
        return list(_skew_cells(self))

    def is_horizontal_strip(self):
        """At most one cell in each column."""
        cols = [c for (_, c) in self.cells()]
        return len(cols) == len(set(cols))

    def __eq__(self, other):
        return (isinstance(other, SkewShape)
                and self.outer == other.outer and self.inner == other.inner)

    def __hash__(self):
        return hash((self.outer, self.inner))

    def __repr__(self):
        return f"{self.outer}/{self.inner}"


@lru_cache(maxsize=None)
def _skew_cells(shape):
    """The tuple of shape.cells(), listed once per skew shape."""
    return tuple((r, c) for (r, c) in shape.outer.cells()
                 if c > shape.inner[r - 1])


def horizontal_strips(outer):
    """All mu <= outer such that outer/mu is a horizontal strip (mu = outer
    included), as a new list the caller may change."""
    return list(_horizontal_strips(outer))


@lru_cache(maxsize=None)
def _horizontal_strips(outer):
    """The tuple of horizontal_strips(outer), found once per partition."""
    rows = len(outer.parts)
    ranges = []
    for i in range(rows):
        # mu_i can shrink row i, but must still cover row i+1 of outer
        lo = outer[i + 1] if i + 1 < rows else 0
        ranges.append(range(outer[i], lo - 1, -1))
    out = []
    for mu_parts in itertools.product(*ranges):
        try:
            mu = Partition(mu_parts)
        except ValueError:
            continue
        if SkewShape(outer, mu).is_horizontal_strip():
            out.append(mu)
    return tuple(out)


@lru_cache(maxsize=None)
def q_content(shape):
    """c_{lambda/mu}(q) = sum over cells of [col - row]_q."""
    total = LaurentPoly.zero()
    for (r, c) in shape.cells():
        total = total + qint(c - r)
    return total


class StandardTableau:
    """Standard filling of a (possibly skew) shape.

    entries maps cell -> value; values are |inner|+1 .. |outer|, rows and
    columns strictly increasing.  A tableau is not changed once built: its
    hash and repr are computed on first use and kept.
    """

    __slots__ = ("shape", "entries", "_cell_of", "_hash", "_repr")

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = dict(entries)
        cells = shape.cells()
        lo, hi = shape.inner.size + 1, shape.outer.size
        if sorted(self.entries) != sorted(cells):
            raise ValueError("entries do not cover the shape")
        if sorted(self.entries.values()) != list(range(lo, hi + 1)):
            raise ValueError(f"values must be {lo}..{hi}")
        for (r, c), v in self.entries.items():
            right = self.entries.get((r, c + 1))
            below = self.entries.get((r + 1, c))
            if right is not None and right <= v:
                raise ValueError("rows must strictly increase")
            if below is not None and below <= v:
                raise ValueError("columns must strictly increase")
        self._cell_of = {v: cell for cell, v in self.entries.items()}
        self._hash = self._repr = None

    @property
    def n(self):
        return self.shape.outer.size

    def cell_of(self, k):
        return self._cell_of[k]

    def content_of(self, k):
        r, c = self._cell_of[k]
        return c - r

    def row_of(self, k):
        return self._cell_of[k][0]

    def word(self):
        """word(t): letter i is the row of entry i (straight shapes)."""
        return tuple(self.row_of(k) for k in range(1, self.n + 1))

    def descent_set(self):
        """{i : i+1 is strictly south and weakly west of i}."""
        out = set()
        for i in range(1, self.n):
            ri, ci = self._cell_of[i]
            rj, cj = self._cell_of[i + 1]
            if rj > ri and cj <= ci:
                out.add(i)
        return frozenset(out)

    def is_desarrangement(self):
        """min([n] \\ Des(t)) is even."""
        des = self.descent_set()
        m = next(i for i in range(1, self.n + 1) if i not in des)
        return m % 2 == 0

    def shape_up_to(self, k):
        """The shape of the cells holding entries 1..k: shape(t|_k) for a
        straight tableau."""
        return _shape_of_cells({c: v for c, v in self.entries.items() if v <= k})

    def apply_gen_by_value(self, i):
        """t . s_i: swap the entries i and i+1 (None if not standard)."""
        ent = dict(self.entries)
        ci, cj = self._cell_of[i], self._cell_of[i + 1]
        ent[ci], ent[cj] = i + 1, i
        try:
            return StandardTableau(self.shape, ent)
        except ValueError:
            return None

    def dominance_leq(self, other):
        """self <= other: shape(self|_k) dominated by shape(other|_k) for all k."""
        if self.shape != other.shape:
            raise ShapeMismatch("different shapes")
        lo = self.shape.inner.size
        for k in range(lo + 1, self.n + 1):
            if not other.shape_up_to(k).dominates(self.shape_up_to(k)):
                return False
        return True

    def rows(self):
        """Row lists of entries (for straight shapes / serialization)."""
        nrows = len(self.shape.outer.parts)
        return [[self.entries[(r, c)]
                 for c in range(self.shape.inner[r - 1] + 1,
                                self.shape.outer[r - 1] + 1)]
                for r in range(1, nrows + 1)
                if self.shape.outer[r - 1] > self.shape.inner[r - 1]]

    def __eq__(self, other):
        return (isinstance(other, StandardTableau)
                and self.shape == other.shape and self.entries == other.entries)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.shape, frozenset(self.entries.items())))
        return self._hash

    def __repr__(self):
        if self._repr is None:
            self._repr = "/".join("".join(map(str, row))
                                  for row in self.rows())
        return self._repr


def _shape_of_cells(entries):
    counts = {}
    for (r, _c) in entries:
        counts[r] = counts.get(r, 0) + 1
    parts = [counts.get(r, 0) for r in range(1, max(counts, default=0) + 1)]
    return Partition(parts)


@lru_cache(maxsize=None)
def extend(s, t_skew):
    """t(s): glue a straight tableau s into the inner shape of t_skew."""
    if _shape_of_cells(s.entries) != t_skew.shape.inner:
        raise ShapeMismatch("inner shape does not match")
    ent = dict(s.entries)
    ent.update(t_skew.entries)
    return StandardTableau(SkewShape(t_skew.shape.outer), ent)


@lru_cache(maxsize=None)
def superstandard(shape):
    """t^{lambda/mu}: fill the skew cells row by row, top to bottom."""
    if isinstance(shape, Partition):
        shape = SkewShape(shape)
    ent = {}
    v = shape.inner.size
    for cell in sorted(shape.cells()):
        v += 1
        ent[cell] = v
    return StandardTableau(shape, ent)


def enumerate_syt(shape):
    """All standard tableaux of the shape, as a new list the caller may
    change; the tableaux in it are shared and must not be changed.

    For straight shapes the order is lexicographic on word(t); skew shapes
    use the analogous row-word order.
    """
    if isinstance(shape, Partition):
        shape = SkewShape(shape)
    return list(_syt(shape))


@lru_cache(maxsize=None)
def _syt(shape):
    """The tuple of enumerate_syt(shape), enumerated once per skew shape."""
    cells = shape.cells()
    lo = shape.inner.size

    def build(ent, v):
        if v > shape.outer.size:
            yield StandardTableau(shape, ent)
            return
        for cell in sorted(c for c in cells if c not in ent):
            r, c = cell
            left_ok = c == 1 or c - 1 <= shape.inner[r - 1] or (r, c - 1) in ent
            up_ok = r == 1 or c <= shape.inner[r - 2] or (r - 1, c) in ent
            if left_ok and up_ok:
                ent[cell] = v
                yield from build(ent, v + 1)
                del ent[cell]

    out = list(build({}, lo + 1))
    out.sort(key=lambda t: tuple(t.row_of(k)
                                 for k in range(lo + 1, shape.outer.size + 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def hook_length_count(parts):
    """f^lambda by the hook length formula."""
    lam = Partition(parts)
    conj = [sum(1 for p in lam.parts if p > c) for c in range(lam[0])]
    prod = 1
    for (r, c) in lam.cells():
        prod *= (lam[r - 1] - c) + (conj[c - 1] - r) + 1
    return math.factorial(lam.size) // prod


def f_lambda(lam):
    return hook_length_count(lam.parts)


def d_mu(mu):
    """Number of desarrangement tableaux of shape mu (1 for the empty shape)."""
    if mu.size == 0:
        return 1
    return sum(1 for t in enumerate_syt(mu) if t.is_desarrangement())
