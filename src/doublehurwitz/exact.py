"""Exact rational coefficients as int numerators over one common denominator.

A coefficient map is a pair (nums, den): ``nums`` maps each key to a
nonzero int, and ``den`` is a positive int with gcd(den, *nums.values()) == 1,
so the empty map has den 1.  This lowest-terms form is unique, so two maps
are equal iff their pairs are.  :class:`.series.GradedSeries` (keyed by
monomial) and :class:`.zseries.ZPoly` (keyed by generator monomial, packed
as an int by :mod:`.packing`) store their coefficients in this form, and the
functions here are its only kernels.
A sum of many parts runs on one accumulator of int numerators over a
running denominator: :func:`widen` rescales it in place so that the next
part's denominator divides the running one, :func:`add_into` adds a part as
ints, and :func:`lowest` normalises once at the end.  :func:`div` is the one
checked exact division of ints, and :func:`ratio` renders every rational the
CLI prints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def check(c):
    """c itself if it is an int (bool excluded) or a Fraction; anything else
    raises TypeError, so no inexact number becomes a coefficient."""
    if type(c) is not int and type(c) is not Fraction:
        raise TypeError(f"coefficients must be ints or Fractions, not {c!r}")
    return c


def from_terms(terms: dict) -> tuple:
    """(nums, den) in lowest terms for a {key: int or Fraction} dict; zeros
    are dropped.  Over the lcm of the reduced denominators the numerators
    are already coprime to it, so no gcd is taken."""
    for c in terms.values():
        check(c)
    return over_lcm({k: (c.numerator, c.denominator) for k, c in terms.items() if c})


def over_lcm(ratios: dict) -> tuple:
    """(nums, den) for a {key: (int num, positive int den)} dict, over the lcm
    of the dens.  When every ratio is nonzero and in lowest terms, so is the
    result: the den holding the lcm's full power of a prime leaves its
    scaled numerator free of that prime.  Otherwise lowest() finishes it."""
    den = lcm(*(d for _, d in ratios.values()))
    return {k: n * (den // d) for k, (n, d) in ratios.items()}, den


def lowest(nums: dict, den: int) -> tuple:
    """(nums, den) in lowest terms for int numerators (zeros allowed) over a
    positive den.  The dict is returned uncopied unless a zero or a common
    factor must go."""
    if 0 in nums.values():
        nums = {k: n for k, n in nums.items() if n}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: n // g for k, n in nums.items()}
    return nums, den


def widen(acc: dict, den: int, part_den: int) -> int:
    """The running denominator of the accumulator acc / den grown so that
    part_den divides it, with acc's numerators rescaled in place to match;
    den itself when part_den already divides it."""
    if den % part_den:
        grow = part_den // gcd(den, part_den)
        for k in acc:
            acc[k] *= grow
        den *= grow
    return den


def add_into(acc: dict, den: int, nums: dict, part_den: int, mult: int) -> int:
    """Add mult * nums / part_den (int numerators, an int mult) into acc / den
    in place; return the running denominator, grown by :func:`widen`."""
    den = widen(acc, den, part_den)
    scale = den // part_den * mult
    get = acc.get
    for k, n in nums.items():
        acc[k] = get(k, 0) + n * scale
    return den


def add(a: dict, a_den: int, b: dict, b_den: int) -> tuple:
    """(nums, den) of a / a_den + b / b_den, over the lcm of the two
    denominators before it is brought to lowest terms."""
    out = dict(a)
    return lowest(out, add_into(out, a_den, b, b_den, 1))


def scale(nums: dict, den: int, c) -> tuple:
    """(nums, den) of c * nums / den for an int or Fraction c (TypeError
    otherwise), from nums / den in lowest terms.  c is in lowest terms too,
    so cancelling its numerator against den and its denominator against the
    numerators' content leaves lowest terms with no gcd over the result."""
    num, c_den = check(c).numerator, c.denominator
    if not num:
        return {}, 1
    g = gcd(num, den)
    h = gcd(c_den, *nums.values()) if c_den != 1 else 1
    num //= g
    if h == 1:
        out = {k: n * num for k, n in nums.items()}
    else:
        out = {k: n // h * num for k, n in nums.items()}
    return out, den // g * (c_den // h)


def div(n: int, d: int) -> int:
    """n / d for integers that d must divide.

    A remainder means the premise of an integer computation is broken, so it
    raises instead of returning a rounded (wrong) number."""
    quotient, remainder = divmod(n, d)
    if remainder:
        raise ArithmeticError(f"{n} is not divisible by {d}")
    return quotient


def ratio(n: int, den: int) -> str:
    """The coefficient n / den as "num/den" in lowest terms."""
    g = gcd(n, den)
    return f"{n // g}/{den // g}"
