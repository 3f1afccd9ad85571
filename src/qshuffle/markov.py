"""The normalized q-random-to-random walk on S_n.

The transition matrix is the T_w-basis regular representation of R_n(q0)
conjugated by the diagonal matrix of q0^l(w) and divided by ([n]_{q0})^2;
for q0 >= 1 the entries are genuine probabilities and the Mallows measure
(pi(w) proportional to q0^l(w)) is stationary.  All computations are exact
rational; floats appear only in the optional display columns.
"""

from __future__ import annotations

from fractions import Fraction

from .hecke import memo, r2r
from .linalg import vec_mat
from .qpoly import qint
from .seminormal import word_module
from .symmetric import all_permutations
from .tableaux import Partition


class SubunitQ(ValueError):
    pass


@memo
def transition_matrix(n, q0):
    """Stochastic matrix P[rank(w)][rank(u)] of one walk step (q0 >= 1),
    shared: callers must not change it.

    P_ij = M_ij q0^(l(j) - l(i)) / [n]_{q0}^2, M = rows / d the built
    integer rows of R_n on the regular module W^(1^n).  With q0 = a/b and L
    the longest length, q0^l(k) is w_k / b^L for w_k = a^l(k) b^(L - l(k)),
    so each nonzero entry is one Fraction M_ij w_j / (d w_i [n]^2); every
    other entry is 0."""
    q0 = Fraction(q0)
    if q0 < 1:
        raise SubunitQ("the walk needs q0 >= 1")
    d, rows = word_module(Partition((1,) * n), q0)._built(r2r(n))
    lengths = [w.length() for w in all_permutations(n)]
    top = max(lengths)
    weights = [q0.numerator ** k * q0.denominator ** (top - k)
               for k in lengths]
    norm = qint(n).eval(q0) ** 2
    zero, out = Fraction(0), []
    for w_i, row in zip(weights, rows):
        dense = [zero] * len(rows)
        scale = d * w_i * norm.numerator
        for j, c in row:
            dense[j] = Fraction(c * weights[j] * norm.denominator, scale)
        out.append(dense)
    return out


def mallows(n, q0):
    """Mallows distribution pi(w) = q0^l(w) / [n]!_{q0}, Lehmer-rank indexed."""
    q0 = Fraction(q0)
    weights = [q0 ** w.length() for w in all_permutations(n)]
    total = sum(weights)
    return [w / total for w in weights]


def is_stochastic(matrix):
    return all(all(x >= 0 for x in row) and sum(row) == 1 for row in matrix)


def tv_distance(p, q):
    return sum(abs(a - b) for a, b in zip(p, q)) / 2


def tv_mixing_curve(n, q0, steps):
    """Exact TV distance to stationarity from the identity, t = 0..steps."""
    mat = transition_matrix(n, q0)
    pi = mallows(n, q0)
    dist = [Fraction(0)] * len(pi)
    dist[0] = Fraction(1)  # identity has Lehmer rank 0
    curve = [tv_distance(dist, pi)]
    for _ in range(steps):
        dist = vec_mat(dist, mat)
        curve.append(tv_distance(dist, pi))
    return curve


def mixing_csv(curve):
    lines = ["step,tv_exact,tv_float"]
    for t, value in enumerate(curve):
        lines.append(f"{t},{value.numerator}/{value.denominator},{float(value)}")
    return "\n".join(lines) + "\n"
