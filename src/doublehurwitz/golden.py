"""Golden closed forms of the first h-polynomials in the generators z_{d,r}.

These exact polynomials are the fixed targets for the recursion engines; the
classical cut-and-join computation reproduces their q-expansions, so any
regression in either pipeline shows up as a mismatch against this table.
A generator z_{d,r} is written as the pair (d, r), as in :mod:`.zseries`.
"""

from __future__ import annotations

from fractions import Fraction

from .zseries import ZPoly


GOLDEN_H_POLYS = {
    (2,): ZPoly({((0, 1),): 1, ((1, 1),): 1}),
    (3,): ZPoly(
        {
            ((0, 1),): 1,
            ((0, 1), (0, 1)): Fraction(-1, 2),
            ((1, 1),): 3,
            ((2, 1),): 2,
        }
    ),
    (4,): ZPoly(
        {
            ((0, 1),): 1,
            ((0, 1), (0, 1)): Fraction(-5, 2),
            ((1, 1),): 6,
            ((0, 1), (1, 1)): -2,
            ((2, 1),): 11,
            ((3, 1),): 6,
        }
    ),
    (5,): ZPoly(
        {
            ((0, 1),): 1,
            ((0, 1), (0, 1)): Fraction(-15, 2),
            ((0, 1), (0, 1), (0, 1)): Fraction(5, 6),
            ((1, 1),): 10,
            ((0, 1), (1, 1)): -15,
            ((1, 1), (1, 1)): -2,
            ((2, 1),): 35,
            ((0, 1), (2, 1)): -6,
            ((3, 1),): 50,
            ((4, 1),): 24,
        }
    ),
    (2, 2): ZPoly(
        {
            ((0, 1),): -6,
            ((0, 1), (0, 1)): 1,
            ((0, 2),): 1,
            ((1, 1),): -11,
            ((1, 2),): 2,
            ((2, 1),): -6,
            ((2, 2),): 2,
        }
    ),
    (3, 2): ZPoly(
        {
            ((0, 1),): -10,
            ((0, 1), (0, 1)): 9,
            ((0, 2),): 1,
            ((0, 1), (0, 2)): -1,
            ((1, 1),): -35,
            ((0, 1), (1, 1)): 6,
            ((1, 2),): 4,
            ((0, 1), (1, 2)): -1,
            ((2, 1),): -50,
            ((2, 2),): 8,
            ((3, 1),): -24,
            ((3, 2),): 6,
        }
    ),
    (2, 2, 2): ZPoly(
        {
            ((0, 1),): 85,
            ((0, 1), (0, 1)): -40,
            ((0, 2),): -18,
            ((0, 1), (0, 2)): 6,
            ((0, 3),): 1,
            ((1, 1),): 225,
            ((0, 1), (1, 1)): -24,
            ((1, 2),): -51,
            ((0, 1), (1, 2)): 6,
            ((1, 3),): 3,
            ((2, 1),): 274,
            ((2, 2),): -84,
            ((2, 3),): 6,
            ((3, 1),): 120,
            ((3, 2),): -54,
            ((3, 3),): 6,
        }
    ),
}
