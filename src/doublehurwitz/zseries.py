"""The generator series z_{d,r}(q), the polynomial ring they span, and the
correction series Psi_{a,l}.

The closed form implemented by :func:`z_series` is

    z_{d,r}(q) = sum_{K,n} (1/n!) C(n+r-3, d) K^{n+r-3-d}
                 sum_{k_1+...+k_n=K} prod_i (k_i^{k_i}/k_i!) q_{k_i},

where C is the falling-factorial binomial (so tops may be negative) and
negative powers of K are exact rationals.  Every generating function produced
by the recursion engines is a polynomial in these series; :class:`ZPoly` is
that polynomial ring with formal generators indexed by (d, r), its rational
coefficients stored exactly in the int-numerator form of :mod:`.exact`.

A ZPoly keys its coefficients by monomials packed as ints by one
:class:`.packing.Packer` with 8-bit fields: each generator the process meets
gets a field, so a product of monomials is a sum of ints, and an exponent
above 127 raises OverflowError.  The sorted tuple of generators stays the
read-out form (``terms``, the JSON and the order of :func:`zpoly_eval`),
decoded once per key.  ``PACKER.unpack`` returns a key's (generator,
exponent) pairs sorted by generator, and ``pretty`` reads those pairs, so no
output depends on the order the generators were registered in.  A number is
no ZPoly: scale by ``poly * c``.  Psi_{a,l} is built by one pass over ordered
tuples of t-letters on series.PACKER keys (see :func:`psi_series`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from types import MappingProxyType
from typing import Optional

from . import exact
from .packing import Packer
from .partitions import aut_order, check_bound, gen_binomial, partitions_of
from .series import PACKER as SERIES_PACKER
from .series import GradedSeries, T, Truncation, key_weights, mono_from_vars, partition_mono, qvar, tvar


def check_gen(d, r) -> "ZGen":
    """The generator z_{d,r} as the pair (d, r): d and r must be ints
    (TypeError otherwise, a bool is no int here), d >= 0 and r >= 1
    (ValueError otherwise)."""
    return (check_bound(d, 0, "d"), check_bound(r, 1, "r"))


@lru_cache(maxsize=None, typed=True)  # so True does not hit the cached 1
def z_series(
    d: int,
    r: int,
    q_weight_bound: int,
    n_bound: Optional[int] = None,
    drop_negative_k_powers: bool = False,
) -> GradedSeries:
    """Exact truncated expansion of z_{d,r}(q).

    The ordered inner sum over k_1 + ... + k_n = K with its 1/n! collapses to
    a sum over partitions mu of K weighted by 1/|Aut mu|.  Terms with
    n + r - 3 < 0 (only possible for n = r = 1) are included via the
    falling-factorial binomial; ``drop_negative_k_powers`` zeroes the d >= 1
    ones among them for diagnostic comparison.
    """
    check_gen(d, r)
    check_bound(q_weight_bound, 1, "q_weight_bound")
    if n_bound is not None:
        check_bound(n_bound, 1, "n_bound")
    terms: dict = {}  # monomial -> (num, den) of its coefficient
    for K in range(1, q_weight_bound + 1):
        for mu in partitions_of(K):
            n = len(mu)
            if n_bound is not None and n > n_bound:
                continue
            e = n + r - 3
            if drop_negative_k_powers and e < 0 and d >= 1:
                continue
            binom = gen_binomial(e, d)
            if binom == 0:
                continue
            num, den = binom, aut_order(mu)
            if e >= d:
                num *= K ** (e - d)
            else:
                den *= K ** (d - e)
            for part in mu:
                num *= part**part
                den *= factorial(part)
            terms[SERIES_PACKER.pack(partition_mono(qvar, mu))] = num, den
    return GradedSeries.from_ints(Truncation(q_weight=q_weight_bound), *exact.over_lcm(terms))


# ---------------------------------------------------------------------------
# ZPoly: exact polynomials in the formal generators z_{d,r}
# ---------------------------------------------------------------------------

ZGen = tuple  # (d, r)
ZKey = tuple  # sorted tuple of ZGen with multiplicity; () is the constant

# A monomial in the generators is packed as one int by one process-wide
# Packer (see .packing), with 8-bit fields: an exponent is at most 127.
PACKER = Packer(8)


def _pack(gens) -> int:
    """The packed key of the monomial with the given generators (repeats are
    powers), each checked by check_gen; OverflowError past exponent 127."""
    return PACKER.pack(Counter(check_gen(*g) for g in gens).items())


@lru_cache(maxsize=None)
def _unpack(key: int) -> ZKey:
    """The packed key as its sorted tuple of generators with multiplicity,
    the read-out form of a monomial; PACKER.unpack's pairs come sorted."""
    return tuple(g for g, e in PACKER.unpack(key) for _ in range(e))


@lru_cache(maxsize=None)
def _gens_text(key: int) -> str:
    """The packed key's generators as JSON text, [[d, r], ...]."""
    return f"[{', '.join(f'[{d}, {r}]' for d, r in _unpack(key))}]"


def _poly(nums: dict, den: int) -> "ZPoly":
    """Wrap nonzero int numerators over a positive den, already in lowest terms."""
    poly = object.__new__(ZPoly)
    poly.nums = nums
    poly.den = den
    return poly


class ZPoly:
    """Polynomial with rational coefficients in the generators z_{d,r}.

    A monomial in the generators is read out as a sorted tuple of (d, r)
    pairs with multiplicity, the empty tuple being the constant monomial, and
    stored as one packed int (see _pack): the product of two monomials is
    the sum of their ints, and 0 is the constant.  No exponent may pass
    127 (OverflowError otherwise).  The coefficients are int numerators
    over one common denominator in the lowest-terms form of :mod:`.exact`:
    ``nums`` maps each packed key to a nonzero int over the positive int
    ``den``, and the zero polynomial has den 1.  The form is unique, so a sum
    or product costs int arithmetic plus one gcd over its result, and
    structural equality (exact form equality) is equality of (nums, den).
    A coefficient that is not an int or a Fraction raises TypeError.
    ``terms`` is a read-only view of the coefficients as Fractions, keyed by
    tuple; it, :meth:`pretty` and the JSON form are the same whatever order
    the process met the generators in.  Since the z-series satisfy
    polynomial relations, use :func:`zpoly_eval` to decide mathematical
    equality of values.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms: Optional[dict] = None):
        """Each key is an iterable of generators (d, r), each checked by
        check_gen, and keys that sort to the same monomial have their
        coefficients summed."""
        coeffs: dict = {}
        for key, coeff in (terms or {}).items():
            key = _pack(key)
            coeffs[key] = coeffs.get(key, 0) + exact.check(coeff)
        self.nums, self.den = exact.from_terms(coeffs)

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients as Fractions, keyed by monomial tuple."""
        den = self.den
        return MappingProxyType({_unpack(key): Fraction(n, den) for key, n in self.nums.items()})

    @staticmethod
    def constant(c) -> "ZPoly":
        return ZPoly({(): c})

    @staticmethod
    def gen(d: int, r: int) -> "ZPoly":
        return ZPoly({((d, r),): 1})

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZPoly):
            return self.den == other.den and self.nums == other.nums
        return NotImplemented

    def __add__(self, other: "ZPoly") -> "ZPoly":
        if not isinstance(other, ZPoly):
            return NotImplemented
        return _poly(*exact.add(self.nums, self.den, other.nums, other.den))

    def __neg__(self) -> "ZPoly":
        return _poly({k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + -other

    def __mul__(self, other) -> "ZPoly":
        if isinstance(other, ZPoly):
            return ZPoly.combine(((1, self, other),))
        return _poly(*exact.scale(self.nums, self.den, other))

    @staticmethod
    def combine(triples) -> "ZPoly":
        """The sum of c * a * b over an iterable of (c, a, b) triples: c an int
        or a Fraction (TypeError otherwise), a a ZPoly and b a ZPoly or None
        for 1.  Triples with a zero factor are skipped.  Every term is added
        straight into int numerators over one running denominator, by
        :func:`.exact.add_into` or, for a product, after :func:`.exact.widen`,
        a product's key being the sum of its factors' keys; the sum is checked
        by PACKER.check and brought to lowest terms once, so no term and no
        partial sum is built as a ZPoly."""
        acc: dict = {}
        get = acc.get
        den = 1
        for c, a, b in triples:
            num = exact.check(c).numerator
            if not num or not a.nums:
                continue
            if b is None:
                den = exact.add_into(acc, den, a.nums, c.denominator * a.den, num)
            elif b.nums:
                part_den = c.denominator * a.den * b.den
                den = exact.widen(acc, den, part_den)
                scale = den // part_den * num
                b_items = b.nums.items()
                for k1, n1 in a.nums.items():
                    n1 *= scale
                    for k2, n2 in b_items:
                        key = k1 + k2
                        acc[key] = get(key, 0) + n1 * n2
        PACKER.check(acc)
        return _poly(*exact.lowest(acc, den))

    def __repr__(self) -> str:
        return f"ZPoly({self.pretty()})"

    def pretty(self) -> str:
        if not self.nums:
            return "0"
        chunks = []
        for key in sorted(self.nums, key=_unpack):
            coeff = Fraction(self.nums[key], self.den)
            if not key:
                chunks.append(str(coeff))
                continue
            body = "*".join(
                f"z_{{{d},{r}}}" + (f"^{e}" if e > 1 else "")
                for (d, r), e in PACKER.unpack(key)
            )
            if coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                cs = str(coeff) if coeff.denominator == 1 else f"({coeff})"
                chunks.append(f"{cs}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")

    # -- JSON ----------------------------------------------------------------

    def json_text(self) -> str:
        """The text json.dumps writes for one {"gens": [[d, r], ...], "coeff":
        "num/den"} per term, sorted by monomial tuple, each coefficient in
        lowest terms by :func:`.exact.ratio` ([] is 0), built from memoised
        monomial text."""
        nums, den = self.nums, self.den
        terms = [f'{{"gens": {_gens_text(key)}, "coeff": "{exact.ratio(nums[key], den)}"}}'
                 for key in sorted(nums, key=_unpack)]
        return f"[{', '.join(terms)}]"

    @staticmethod
    def from_json_list(data) -> "ZPoly":
        """Inverse of :meth:`json_text` after json.loads, accepting only what it writes.
        Anything but a list ([] is 0) raises ValueError, and so does an entry
        whose generators are not pairs (d, r) of ints with d >= 0 and r >= 1,
        whose coefficient is not the string json_text writes for a nonzero
        value ("num/den" in lowest terms with den > 0, so not a bare "num",
        "2/4", "0/1", "+1/2" or " 1/2"), or whose generators repeat an
        earlier entry's; the message names the entry.  A generator whose
        exponent passes 127 raises OverflowError instead."""
        if not isinstance(data, list):
            raise ValueError(f"a polynomial is a list of terms, not {data!r}")
        coeffs = {}  # packed key -> (num, den), each in lowest terms
        for entry in data:
            try:
                key = _pack(entry["gens"])
                coeff = entry["coeff"]
                num, _, den = coeff.partition("/")
                num, den = int(num), int(den)
            except (AttributeError, KeyError, TypeError, ValueError):
                raise ValueError(f"malformed polynomial entry {entry!r}") from None
            if not num or den <= 0 or gcd(num, den) != 1 or coeff != f"{num}/{den}":
                raise ValueError(f"polynomial entry {entry!r} needs a nonzero \"num/den\" "
                                 "in lowest terms with den > 0")
            if key in coeffs:
                raise ValueError(f"polynomial entry {entry!r} repeats the key {list(map(list, _unpack(key)))}")
            coeffs[key] = num, den
        return _poly(*exact.over_lcm(coeffs))


def zpoly_eval(poly: ZPoly, q_weight_bound: int) -> GradedSeries:
    """Ring homomorphism sending each generator z_{d,r} to its q-series.

    The monomials are taken in sorted tuple order, and each one's product of
    generator series extends the longest prefix it shares with the one
    before.  The sum runs on int numerators over one running denominator."""
    trunc = Truncation(q_weight=check_bound(q_weight_bound, 0, "q_weight_bound"))
    acc: dict = {}
    den = 1
    chain: list = []  # chain[i]: the product of the first i + 1 series of key
    key = ()
    for packed in sorted(poly.nums, key=_unpack):
        next_key = _unpack(packed)
        shared = 0
        while shared < min(len(key), len(next_key)) and key[shared] == next_key[shared]:
            shared += 1
        del chain[shared:]
        key = next_key
        for d, r in key[shared:]:
            z = z_series(d, r, q_weight_bound)
            chain.append(chain[-1] * z if chain else z)
        nums, prod_den = (chain[-1].nums, chain[-1].den) if chain else ({0: 1}, 1)
        den = exact.add_into(acc, den, nums, prod_den, poly.nums[packed])
    return GradedSeries.from_ints(trunc, acc, den * poly.den)


def zpoly_values_equal(a: ZPoly, b: ZPoly, q_weight: int) -> bool:
    """Equality of the polynomials as q-series, decided by evaluation.

    The generator series satisfy polynomial relations, so distinct polynomial
    forms can represent the same series; structural equality (==) is only a
    sufficient condition.  Evaluation up to the given q-weight is the
    equality of record for recursion outputs.  It compares nothing when a
    and b differ in form but both evaluate to zero up to q_weight, so that
    raises ValueError: the q-weight is too low to tell them apart."""
    if a == b:
        return True
    equal = zpoly_eval(a - b, q_weight).is_zero()
    if equal and zpoly_eval(a, q_weight).is_zero():
        raise ValueError(f"vacuous comparison: both sides evaluate to 0 up to q-weight {q_weight}")
    return equal


# ---------------------------------------------------------------------------
# eqzred: Euler-type operators act on the generators polynomially
# ---------------------------------------------------------------------------


def zgen_weighted_euler(d: int, r: int) -> ZPoly:
    """Image of z_{d,r} under sum_k k q_k d/dq_k: z_{d,r+1} - z_{d-1,r}."""
    out = ZPoly.gen(d, r + 1)
    if d >= 1:
        out = out - ZPoly.gen(d - 1, r)
    return out


def zgen_euler(d: int, r: int) -> ZPoly:
    """Image of z_{d,r} under sum_k q_k d/dq_k: (d+1) z_{d+1,r+1} + (2-r) z_{d,r}."""
    return ZPoly.gen(d + 1, r + 1) * (d + 1) + ZPoly.gen(d, r) * Fraction(2 - r)


def _zpoly_derivation(poly: ZPoly, gen_image) -> ZPoly:
    """Extend a map on generators to a derivation of the polynomial ring.

    The image is one :meth:`ZPoly.combine` over the int triples
    (n e, image of g / den, the monomial without one factor g), one for each
    term n / den of poly and each factor g^e of its monomial; the monomial
    without g is its key minus g's unit.  Each generator's image is computed
    and divided by den once, so no triple takes a gcd."""
    gens = dict.fromkeys(g for key in poly.nums for g, _ in PACKER.unpack(key))
    images = {g: gen_image(*g) * Fraction(1, poly.den) for g in gens}
    return ZPoly.combine(
        (n * e, images[g], _poly({key - PACKER.unit(g): 1}, 1))
        for key, n in poly.nums.items()
        for g, e in PACKER.unpack(key)
    )


def zpoly_weighted_euler(poly: ZPoly) -> ZPoly:
    return _zpoly_derivation(poly, zgen_weighted_euler)


def zpoly_euler(poly: ZPoly) -> ZPoly:
    return _zpoly_derivation(poly, zgen_euler)


def check_eqzred(d: int, r: int, q_weight_bound: int):
    """Verify both Euler-operator identities for one generator, exactly.

    Returns (ok, detail): the q-series operators applied to z_{d,r} must match
    the stated z-combinations coefficient for coefficient up to the bound.
    """
    z = z_series(d, r, q_weight_bound)
    # z_{d,r} holds only q-letters, so sum_k k q_k d/dq_k scales q_mu by
    # |mu|, its q-weight, and sum_k q_k d/dq_k by len(mu), its letter count
    lhs1 = z.map_terms(lambda k: ((k, key_weights(k)[0]),))
    rhs1 = zpoly_eval(zgen_weighted_euler(d, r), q_weight_bound)
    if lhs1 != rhs1:
        return False, f"weighted Euler identity fails for z_{{{d},{r}}}"
    lhs2 = z.map_terms(lambda k: ((k, sum(e for _, e in SERIES_PACKER.fields(k))),))
    rhs2 = zpoly_eval(zgen_euler(d, r), q_weight_bound)
    if lhs2 != rhs2:
        return False, f"Euler identity fails for z_{{{d},{r}}}"
    return True, f"both identities hold for z_{{{d},{r}}} up to q-weight {q_weight_bound}"


# ---------------------------------------------------------------------------
# the correction series Psi_{a,l}
# ---------------------------------------------------------------------------


def psi_series(a: int, ell: int, t_weight_bound: int) -> GradedSeries:
    """The series Psi_{a,ell} in the t_{i,j} variables, truncated by t-weight:
    a and ell ints (TypeError otherwise), a >= 0, ell >= 1, the bound >= 0.

    Psi_{a,ell} = sum_k (1/k!) sum over ordered k-tuples of pairs with
    sum(nu) = ell + k - 3 and sum(lam) = a of multinomial(|nu|; nu) prod t.
    Every k-slice is homogeneous of t-weight a + ell + 2k - 3, so truncation
    by t-weight keeps exact slices.  The tuples grow one letter at a time:
    layer k maps (sum lam, sum nu) to {packed key: int}, each int the sum of
    multinomial(|nu|; nu) over the ordered tuples that reach the key, and
    appending t_{i,j} adds its unit key and multiplies by C(sum nu + j, j).
    Slice k is layer k at (a, ell + k - 3) over k!.
    """
    check_bound(a, 0, "a")
    check_bound(ell, 1, "ell")
    trunc = Truncation(t_weight=check_bound(t_weight_bound, 0, "t_weight_bound"))
    top = (t_weight_bound - a - ell + 3) // 2  # the last slice within the bound
    nu_top = ell + top - 3
    letters = [(i, j, SERIES_PACKER.unit(tvar(i, j))) for i in range(a + 1) for j in range(nu_top + 1)]
    layer, terms = {(0, 0): {0: 1}}, {}
    for k in range(top + 1):
        if k:
            prev, layer = layer, {}
            for (lam, nu), keys in prev.items():
                for i, j, unit in letters:
                    if lam + i <= a and nu + j <= nu_top:
                        c = comb(nu + j, j)
                        out = layer.setdefault((lam + i, nu + j), {})
                        for key, n in keys.items():
                            out[key + unit] = out.get(key + unit, 0) + n * c
        for key, n in layer.get((a, ell + k - 3), {}).items():
            terms[key] = n, factorial(k)
    return GradedSeries.from_ints(trunc, *exact.over_lcm(terms))


def _t_raise(series: GradedSeries) -> GradedSeries:
    """sum_{i,j >= 0} t_{i,j+1} d/dt_{i,j} (raises t-weight by one): on a
    packed key, one unit of t_{i,j} becomes one of t_{i,j+1}.  Every image
    term of a key has the weights of the key times t_{0,0}."""
    unit, admits, t00 = SERIES_PACKER.unit, series.truncation.admits_weights, SERIES_PACKER.unit(tvar(0, 0))

    def image(key):
        if admits(key_weights(key + t00)):
            for var, e in SERIES_PACKER.fields(key):
                if var[0] == T:
                    yield key - unit(var) + unit(tvar(var[1], var[2] + 1)), e

    return series.map_terms(image)


def _t_count(series: GradedSeries) -> GradedSeries:
    """sum_{i,j >= 0} t_{i,j} d/dt_{i,j}: scale each term by its t-letter count."""
    return series.map_terms(lambda k: ((k, sum(e for v, e in SERIES_PACKER.fields(k) if v[0] == T)),))


def psi_string_base(a: int, ell: int, trunc: Truncation) -> GradedSeries:
    """Exceptional bottom slice of the string equation for Psi_{a,ell}: the
    terms of Psi_{a,ell+1} living on the three-point space, which the
    point-forgetting argument cannot reach.  Nonzero only for ell <= 2:
    t_{a,0} when ell = 1, the constant 1 when ell = 2 and a = 0."""
    terms: dict = {}
    if ell == 1:
        mono = mono_from_vars([(tvar(a, 0), 1)])
        if trunc.admits(mono):
            terms[mono] = Fraction(1)
    elif ell == 2 and a == 0:
        terms[()] = Fraction(1)
    return GradedSeries(trunc, terms)


def check_psi_string_dilaton(a: int, ell: int, t_weight_bound: int):
    """String and dilaton identities for Psi_{a,ell}, compared exactly on all
    monomials the truncation makes complete.

    The t_{0,0}-derivative inserts one point carrying no constraint, so it
    reproduces the next series on the nose:

        (i)   d Psi_{a,ell} / d t_{0,0} = Psi_{a,ell+1}.

    Forgetting that point gives the string equation (with its bottom slice on
    the three-point space as the only exceptional term):

        (ii)  d Psi_{a,ell} / d t_{0,0}
                 = sum_{i,j} t_{i,j+1} d Psi_{a,ell}/d t_{i,j} + base(a, ell),

    and the dilaton equation holds in the displayed operator form:

        (iii) d Psi_{a,ell} / d t_{0,1}
                 = sum_{i,j} t_{i,j} d Psi_{a,ell}/d t_{i,j} + (ell-2) Psi.
    """
    psi = psi_series(a, ell, t_weight_bound)
    window = Truncation(t_weight=t_weight_bound - 1)

    lhs_s = psi.diff(tvar(0, 0)).truncate(window)
    if lhs_s != psi_series(a, ell + 1, t_weight_bound - 1):
        return False, f"point-insertion identity fails for Psi_{{{a},{ell}}}"
    rhs_s = _t_raise(psi).truncate(window) + psi_string_base(a, ell, window)
    if lhs_s != rhs_s:
        return False, f"string identity fails for Psi_{{{a},{ell}}}"

    window2 = Truncation(t_weight=t_weight_bound - 2)
    lhs_d = psi.diff(tvar(0, 1)).truncate(window2)
    rhs_d = (_t_count(psi) + psi * (ell - 2)).truncate(window2)
    if lhs_d != rhs_d:
        return False, f"dilaton identity fails for Psi_{{{a},{ell}}}"
    return True, f"string and dilaton identities hold for Psi_{{{a},{ell}}}"

