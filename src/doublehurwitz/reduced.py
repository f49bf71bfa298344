"""Reduced form of the recursion, over the restricted variable set.

Setting p_i = t_{i,0} (i >= 1) and t_j = t_{0,j} closes the recursion on the
family of series Xbar (the restriction of the full potential) and
Xbar_{s,m} (the restrictions of its partial derivatives).  A coefficient of
Xbar_{s,m} is indexed by a p-monomial (a partition lam) and a t-monomial
(a multiset nu of nonnegative indices); it corresponds to the key

    {(s, m)} u {(lam_i, 0)} u {(0, nu_j)},

a key with at most one entry whose indices are both positive.  This engine
evaluates exactly those keys by the reduced equations, in which the correction
series factorizes into a p-part and a t-part:

    Xbar_{s+1,m} = Xbar_{s,m} + s Xbar_{s,m+1}
      - sum_{l>=1, a>=s} (1/l!) (d Psibar_{a-s,l} / d t_m)
        sum_{s_1+...+s_l=a} prod_i (s_i Xbar_{s_i,0}),

with Psibar carrying ordered p-monomials of weight a-s (all parts >= 1) and
t-monomials constrained by sum(nu) = l + k + j - 3.  The window (s, m) is
forced to the mixed entry when one is present, so the traversal differs from
the full engine's canonical-pivot traversal; agreement of the two engines is a
checked property, not a shared code path.

The correction sum in ``ReducedRecursion._correction`` is deliberately naive:
it loops over every labelled block assignment and every composition of a, at
a cost exponential in the degree.  It is the independent cross-check of the
type-count DP in ``recursion._correction``, so that DP must not be ported
here; a shared algorithm would let one mistake pass in both engines.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial
from .partitions import compositions, multinomial
from .recursion import initial_x, make_xkey
from .zseries import ZPoly


def is_reduced_key(key) -> bool:
    """A key is representable here iff at most one entry is mixed."""
    return sum(1 for a, b in key if a >= 1 and b >= 1) <= 1


class ReducedRecursion:
    """Memoized evaluation of the reduced recursion."""

    def __init__(self):
        self.entries: dict = {}

    def x_value(self, key) -> ZPoly:
        key = make_xkey(key)
        cached = self.entries.get(key)
        if cached is not None:
            return cached
        mixed = [i for i, (a, b) in enumerate(key) if a >= 1 and b >= 1]
        if len(mixed) > 1:
            raise ValueError(f"key {key} is not representable in the reduced variables")

        if all(a == 0 for a, _ in key):
            value = initial_x(tuple(b for _, b in key))
        else:
            window = mixed[0] if mixed else 0  # keys are sorted descending
            big, m = key[window]
            s = big - 1
            rest = key[:window] + key[window + 1 :]
            value = self.x_value(rest + ((s, m),))
            if s:
                value = value + self.x_value(rest + ((s, m + 1),)) * s
            value = value - self._correction(s, m, rest)
        self.entries[key] = value
        return value

    def _correction(self, s: int, m: int, rest: tuple) -> ZPoly:
        assert all(b == 0 for a, b in rest if a >= 1), "rest must be window-free"
        p_letters = [a for a, b in rest if a >= 1]  # orders of marked zeros: (i, 0)
        t_letters = [b for a, b in rest if a == 0]  # psi-exponents: (0, j)
        np_, nt = len(p_letters), len(t_letters)
        total = ZPoly()
        for pmask in range(1 << np_):
            p_in = [p_letters[i] for i in range(np_) if pmask >> i & 1]
            p_out = [p_letters[i] for i in range(np_) if not pmask >> i & 1]
            j = len(p_in)
            for tmask in range(1 << nt):
                t_in = [t_letters[i] for i in range(nt) if tmask >> i & 1]
                t_out = [t_letters[i] for i in range(nt) if not tmask >> i & 1]
                k_t = len(t_in)
                ell = m + sum(t_in) - k_t - j + 2
                if ell < 1:
                    continue
                a = s + sum(p_in)
                if a < ell:
                    continue
                weight = Fraction(multinomial((m, *t_in)), factorial(ell))
                others = [(v, 0) for v in p_out] + [(0, v) for v in t_out]
                inner = ZPoly()
                for blocks in itertools.product(range(ell), repeat=len(others)):
                    groups = [[] for _ in range(ell)]
                    for entry, b in zip(others, blocks):
                        groups[b].append(entry)
                    for sigma in compositions(a, ell):
                        prod = ZPoly.constant(1)
                        for s_i, group in zip(sigma, groups):
                            prod = prod * self.x_value(group + [(s_i, 0)]) * s_i
                        inner = inner + prod
                total = total + inner * weight
        return total
