"""Permutations of S_n: lengths, reduced words, Young subgroups, coset reps.

Permutations are stored in one-line notation (w(1), ..., w(n)) as tuples.
Generators s_i act on positions from the right: w * s_i swaps the values in
positions i and i+1.  n is capped at 8 so dense n!-indexed vectors stay
tractable; Lehmer rank is the canonical integer id for that indexing.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

MAX_N = 8


class Permutation:
    """An element of S_n in one-line notation (1-based values)."""

    __slots__ = ("one_line",)

    def __init__(self, one_line):
        ol = tuple(one_line)
        n = len(ol)
        if n < 1 or n > MAX_N:
            raise ValueError(f"n must be between 1 and {MAX_N}")
        if sorted(ol) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {ol}")
        self.one_line = ol

    @property
    def n(self):
        return len(self.one_line)

    @staticmethod
    def identity(n):
        return Permutation(range(1, n + 1))

    @staticmethod
    def transposition(i, j, n):
        ol = list(range(1, n + 1))
        ol[i - 1], ol[j - 1] = ol[j - 1], ol[i - 1]
        return Permutation(ol)

    def __call__(self, i):
        return self.one_line[i - 1]

    def apply_gen_right(self, i):
        """w * s_i: swap positions i and i+1."""
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"generator index {i} out of range for n={self.n}")
        ol = list(self.one_line)
        ol[i - 1], ol[i] = ol[i], ol[i - 1]
        return Permutation(ol)

    def __mul__(self, other):
        """(self * other)(i) = self(other(i)): apply other first by position."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.one_line[other.one_line[i] - 1]
                           for i in range(self.n))

    def inverse(self):
        inv = [0] * self.n
        for pos, val in enumerate(self.one_line):
            inv[val - 1] = pos + 1
        return Permutation(inv)

    def length(self):
        """Coxeter length = inversion count."""
        ol = self.one_line
        return sum(1 for a, b in itertools.combinations(ol, 2) if a > b)

    def reduced_word(self):
        """Deterministic reduced word (bubble sort on positions).

        Product of s_i over the word, applied left factor first to the
        identity by right multiplication, reproduces w.
        """
        ol = list(self.one_line)
        word = []
        n = self.n
        for _ in range(n):
            swapped = False
            for i in range(n - 1):
                if ol[i] > ol[i + 1]:
                    ol[i], ol[i + 1] = ol[i + 1], ol[i]
                    word.append(i + 1)
                    swapped = True
            if not swapped:
                break
        # sorting w back to the identity used word reversed
        return tuple(reversed(word))

    def descents_left(self):
        """{i : l(s_i w) < l(w)} = positions where i+1 precedes i in one-line."""
        pos = {v: p for p, v in enumerate(self.one_line)}
        return frozenset(i for i in range(1, self.n)
                         if pos[i + 1] < pos[i])

    def lehmer_rank(self):
        """Rank in [0, n!) by the Lehmer code of the one-line word."""
        ol = self.one_line
        n = self.n
        rank = 0
        for i in range(n):
            smaller = sum(1 for j in range(i + 1, n) if ol[j] < ol[i])
            rank += smaller * math.factorial(n - 1 - i)
        return rank

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.one_line == other.one_line

    def __hash__(self):
        return hash(self.one_line)

    def __repr__(self):
        return "[" + ",".join(map(str, self.one_line)) + "]"


def all_permutations(n):
    """All of S_n in Lehmer-rank order."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


class Composition:
    """A composition of n: tuple of positive parts."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        self.parts = parts

    @property
    def n(self):
        return sum(self.parts)

    def descent_set(self):
        """J(alpha) = {a_1, a_1+a_2, ...} minus {n}."""
        out, run = [], 0
        for p in self.parts[:-1]:
            run += p
            out.append(run)
        return frozenset(out)

    def __repr__(self):
        return f"Composition{self.parts}"


def young_subgroup(alpha):
    """S_alpha: permutations preserving each consecutive block of alpha."""
    blocks = []
    start = 1
    for p in alpha.parts:
        blocks.append(list(range(start, start + p)))
        start += p
    out = []
    for pieces in itertools.product(*(itertools.permutations(b) for b in blocks)):
        ol = [v for piece in pieces for v in piece]
        out.append(Permutation(ol))
    return out


def min_coset_reps(alpha):
    """X_alpha: minimal-length reps of right cosets S_alpha \\ S_n.

    Characterized by left descents contained in J(alpha).
    """
    j = alpha.descent_set()
    return [w for w in all_permutations(alpha.n) if w.descents_left() <= j]


@lru_cache(maxsize=None)
def derangement_count(j):
    """d_j = number of fixed-point-free permutations of S_j (d_0 = 1)."""
    if j == 0:
        return 1
    if j == 1:
        return 0
    return (j - 1) * (derangement_count(j - 1) + derangement_count(j - 2))
