"""Monomials packed as ints: one format and one width rule.

A :class:`Packer` gives each variable it meets a W-bit field of an int, at
the index it registered the variable at.  A monomial packs to the sum of
e * 2^(W * index) over its (variable, exponent) pairs, so a product of
monomials packs to the sum of their ints.

Every exponent is a natural number, and the width rule is 0 <= e < 2^(W-1)
in every field: ``pack`` applies it to each exponent and ``check`` to sums
of keys.  A field of a sum of two keys within the rule lies in [0, 2^W), so
no field carries into the next, distinct products have distinct ints and
``fields`` and ``unpack`` read each field with a mask.  Both raise
OverflowError (an ArithmeticError, so the CLI exits 4) rather than let a
field carry.  A key that is stored but not multiplied may hold any field
below 2^W, which ``pack`` admits when its caller asks for that limit.

``unpack`` returns the pairs sorted by variable, the canonical monomial,
whatever order the variables were registered in, so no output depends on
that order.

Two packers serve the package: the GradedSeries kernel's (W = 15), whose
keys :func:`.cutjoin.evolve` steps as well, and ZPoly's (W = 8, so exponents
up to 127).
"""

from __future__ import annotations

from functools import reduce
from operator import or_


class Packer:
    """A registry of variables, each with a W-bit field of a packed int."""

    def __init__(self, width: int):
        """A packer with W = width and no variables registered yet."""
        self.width = width
        self.limit = 1 << (width - 1)  # every exponent e has 0 <= e < limit
        self.mask = (1 << width) - 1  # one field, shifted down
        self.variables = []  # index -> variable
        self.shifts = {}  # variable -> width * its index
        self.top = 0  # the top bit of every registered field
        self.decoded = {}  # packed key -> monomial, memoised by unpack
        self.pairs = []  # index -> {e: (variable, e)}, shared by decoded monomials

    def shift(self, var) -> int:
        """The offset of var's field, registering var if it is new."""
        shift = self.shifts.get(var)
        if shift is None:
            shift = self.shifts[var] = self.width * len(self.variables)
            self.variables.append(var)
            self.pairs.append({})
            self.top |= 1 << (shift + self.width - 1)
        return shift

    def unit(self, var) -> int:
        """The packed key of the monomial var."""
        return 1 << self.shift(var)

    def pack(self, pairs, limit=None) -> int:
        """The packed key of the monomial with these (variable, exponent)
        pairs, each variable once.  An exponent outside [0, limit) raises
        OverflowError; limit is the width rule's by default, and at most
        2^W, so that no field carries."""
        key, shifts = 0, self.shifts
        if limit is None:
            limit = self.limit
        for var, e in pairs:
            if not 0 <= e < limit:
                raise OverflowError(f"exponent {e} of {var} is outside the packed range "
                                    f"[0, {limit})")
            key += e << (shifts[var] if var in shifts else self.shift(var))
        return key

    def check(self, keys) -> None:
        """The width rule on a collection of keys, each a sum of keys within
        it with no field past 2^W - 1 (a sum of two has none): raise
        OverflowError unless every field is below limit, that is, unless the
        top bit of every field is clear."""
        if reduce(or_, keys, 0) & self.top:
            bad = next(b for b in (key & self.top for key in keys) if b)
            var = self.variables[((bad & -bad).bit_length() - 1) // self.width]
            raise OverflowError(f"an exponent of {var} in a packed product is outside "
                                f"the packed range [0, {self.limit})")

    def fields(self, key: int) -> list:
        """The (variable, exponent) pairs packed in key, in field order and
        not memoised, for a key whose every field lies in [0, 2^W); the walk
        would not end on a negative key, which unpack refuses first.  Pairs
        are shared objects, as in the monomials unpack returns."""
        out, rest, width, mask = [], key, self.width, self.mask
        while rest:  # the lowest field in use holds the lowest set bit
            index = ((rest & -rest).bit_length() - 1) // width
            shift = width * index
            e = (rest >> shift) & mask
            pairs = self.pairs[index]
            pair = pairs.get(e)
            if pair is None:
                pair = pairs[e] = (self.variables[index], e)
            out.append(pair)
            rest -= e << shift
        return out

    def unpack(self, key: int) -> tuple:
        """The (variable, exponent) pairs packed in key, sorted by variable,
        memoised.  Every field must lie in [0, 2^W), as a field of a sum of
        two keys within the width rule does; a negative key raises
        OverflowError.  Decoded monomials share their pair objects."""
        mono = self.decoded.get(key)
        if mono is None:
            if key < 0:
                raise OverflowError(f"packed key {key} is negative: an exponent is outside "
                                    f"the packed range [0, {self.limit})")
            mono = self.decoded[key] = tuple(sorted(self.fields(key)))
        return mono
