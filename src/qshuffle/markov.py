"""The normalized q-random-to-random walk on S_n.

The transition matrix is the T_w-basis regular representation of R_n(q0)
conjugated by the diagonal matrix of q0^l(w) and divided by ([n]_{q0})^2;
for q0 >= 1 it is a Markov chain with the Mallows measure (pi(w)
proportional to q0^l(w)) stationary, as verify proves for every q.  The
matrix serves simulate's exact mixing curve, whose CSV alone has floats.
"""

from __future__ import annotations

from fractions import Fraction

from .hecke import r2r
from .linalg import _dense, _fractions, vec_mat
from .qpoly import qint
from .seminormal import word_module
from .symmetric import all_permutations
from .tableaux import Partition


class SubunitQ(ValueError):
    pass


def _weights(n, q0):
    """The integers b^L q0^l(w) = a^l(w) b^(L - l(w)) in Lehmer-rank order,
    for q0 = a/b and L the longest length."""
    q0 = Fraction(q0)
    lengths = [w.length() for w in all_permutations(n)]
    top = max(lengths)
    return [q0.numerator ** k * q0.denominator ** (top - k) for k in lengths]


def transition_matrix(n, q0):
    """Stochastic matrix P[rank(w)][rank(u)] of one walk step (q0 >= 1).

    P_ij = M_ij q0^(l(j) - l(i)) / [n]_{q0}^2 = rows_ij w_j / (d w_i [n]^2)
    for the built (d, rows) of M, R_n on the regular module W^(1^n), and
    w = _weights(n, q0), made dense by linalg's helpers."""
    q0 = Fraction(q0)
    if q0 < 1:
        raise SubunitQ("the walk needs q0 >= 1")
    d, rows = word_module(Partition((1,) * n), q0)._built(r2r(n))
    weights = _weights(n, q0)
    norm = qint(n).eval(q0) ** 2
    return [_fractions([c * w_j * norm.denominator
                        for c, w_j in zip(row, weights)],
                       d * w_i * norm.numerator)
            for w_i, row in zip(weights, _dense(rows, len(rows)))]


def mallows(n, q0):
    """Mallows distribution pi(w) = q0^l(w) / [n]!_{q0}, Lehmer-rank indexed."""
    weights = _weights(n, q0)
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


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
