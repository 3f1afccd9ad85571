"""Exact-arithmetic toolkit for the q-deformed random-to-random shuffle.

Implements the Type A Iwahori-Hecke algebra H_n(q) with its shuffle
elements (random-to-random, random-to-top and their stars), the
closed-form spectrum indexed by horizontal strips, the recursive
seminormal eigenvector construction, the Mallows-stationary Markov chain
at rational q, and the realization on complete flags over small prime
fields.  Everything is computed exactly, symbolically over Z[q, q^-1]
(Laurent polynomials with integer coefficients) and at rational points
over the rationals, and cross-checked against brute-force linear algebra.
"""

__version__ = "0.1.0"
