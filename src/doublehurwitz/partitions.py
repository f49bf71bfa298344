"""Integer partitions, compositions, and exact combinatorial coefficients.

Partitions are plain tuples of positive integers in weakly decreasing order.
All values returned here are exact (``int`` or ``fractions.Fraction``); every
function is pure and safe for concurrent use.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Optional

Partition = tuple


def check_int(v) -> int:
    """v itself if it is an int (bool excluded); anything else raises
    TypeError, so no float, string or bool is truncated into an index."""
    if type(v) is not int:
        raise TypeError(f"expected an int, not {v!r}")
    return v


def check_partition(parts) -> Partition:
    """Validate and canonicalize a partition given as any iterable of ints.

    Parts must be ints (TypeError otherwise) and positive (ValueError); the
    result is sorted weakly decreasing.
    """
    lam = tuple(sorted((check_int(p) for p in parts), reverse=True))
    if any(p < 1 for p in lam):
        raise ValueError(f"partition parts must be positive, got {lam}")
    return lam


def check_profile(g, lam, mu) -> tuple:
    """(lam, mu, m) for the profile of h_{g; lam, mu}: g an int (TypeError
    otherwise) >= 0, lam and mu partitions of one positive degree (ValueError
    otherwise), and m = len(lam) + len(mu) + 2g - 2 >= 0 the branch count."""
    check_int(g)
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu) or not lam:
        raise ValueError("lam and mu must partition the same positive integer")
    if g < 0:
        raise ValueError(f"genus must be >= 0, not {g}")
    return lam, mu, len(lam) + len(mu) + 2 * g - 2


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: Optional[int] = None) -> tuple:
    """All partitions of n, in reverse-lexicographic order.

    The order is the usual one: first part decreasing, ties broken
    recursively, e.g. 4 -> (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    If max_part is given, only partitions with parts <= max_part appear.

    >>> partitions_of(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    top = n if max_part is None else min(n, max_part)
    out = []
    for first in range(top, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def aut_order(lam: Partition) -> int:
    """Order of the group permuting equal parts: product of multiplicity factorials.
    Any tuple of hashable entries is read as a multiset the same way.

    >>> aut_order((4, 3, 3, 1, 1, 1))
    12
    """
    out = 1
    for m in Counter(lam).values():
        out *= factorial(m)
    return out


def zee(lam: Partition) -> int:
    """Centralizer order z_lam = prod_i i^{m_i} m_i! of a permutation of cycle type lam."""
    return aut_order(lam) * prod(lam)


def class_size(lam: Partition) -> int:
    """Number of permutations in S_{|lam|} with cycle type lam (= |lam|!/z_lam)."""
    if not lam:
        raise ValueError("class_size requires a nonempty partition")
    return factorial(sum(lam)) // zee(lam)


def gen_binomial(a: int, d: int) -> Fraction:
    """Generalized binomial coefficient a(a-1)...(a-d+1)/d! for any integer a.

    Defined by the falling factorial, so the top argument may be negative:
    gen_binomial(-1, 2) == 1, and gen_binomial(a, 0) == 1 for every a.
    """
    if d < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for i in range(d):
        num *= a - i
    return Fraction(num, factorial(d))


def multinomial(nu) -> int:
    """Multinomial coefficient (sum nu)! / prod nu_i!.  The entries must be
    ints (TypeError otherwise) and nonnegative (ValueError).

    >>> multinomial((2, 1))
    3
    """
    nu = tuple(check_int(v) for v in nu)
    if any(v < 0 for v in nu):
        raise ValueError("multinomial entries must be nonnegative")
    out = factorial(sum(nu))
    for v in nu:
        out //= factorial(v)
    return out


def compositions(total: int, num_parts: int) -> Iterator[tuple]:
    """Ordered tuples of num_parts integers >= 1 summing to total."""
    if num_parts == 0:
        if total == 0:
            yield ()
        return
    if num_parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - num_parts + 2):
        for rest in compositions(total - first, num_parts - 1):
            yield (first,) + rest
