"""Sparse, graded, truncated multivariate power series over exact coefficients.

Variables live in seven alphabets, each with its own grading: q, p, t (the
t_{i,j}), beta, s (the KP times t_k), psi and xi.  The table ``_ALPHABETS``
is the one place they are defined; ``mono_weights`` and ``mono_str`` read it.

A monomial is a tuple of (variable, exponent) pairs sorted by variable;
every exponent is a positive int.  A :class:`Truncation` fixes optional
upper bounds on the q, p, t, beta and s weights (psi and xi are never
bounded); a series stores only monomials within its truncation and all its
coefficients are exact up to those bounds.  Series are immutable values:
every operation returns a new series and two series are equal iff they have
the same truncation and terms.

The coefficients are exact rationals in the form that :mod:`.exact` owns,
int numerators over one common denominator in lowest terms: a sum, product,
derivative, exp or log runs on ints and takes one gcd over its result.
Callers read them as Fractions, or take the int form (``nums``, ``den``)
where they run hot.

Inside a series a monomial is one int: ``nums`` is keyed by monomials
packed by one :class:`.packing.Packer` with 15-bit fields, ``PACKER``, 0
being the empty monomial, so the packed product of two monomials is the sum
of their ints.  Tuples appear only at the boundary.  The constructor and
``coefficient`` pack; ``num_dict``, ``term_dict``, ``items``, ``terms``,
``pretty`` and ``to_json_dict`` decode with ``PACKER.unpack``, which returns
the canonical monomial, and every output is ordered by that monomial, so it
does not depend on the order the letters were registered in.  ``*``,
``exp``, ``log``, ``diff``, ``truncate`` and ``map_terms`` stay on the ints:
a field read gives an exponent, a unit offset moves a letter, and
``key_weights`` reads a key's weight vector field by field.

The multiply kernel reads and writes one form, {packed key: int
coefficient} buckets keyed by weight over the bounded alphabets, and
``exp`` and ``log`` feed each grade straight back in.  A stored field lies
in [0, 2^15), as a field of a product does; a factor's fields, and each
grade ``exp`` and ``log`` feed back, must lie in [0, 2^14), the packer's
width rule, and outside it OverflowError is raised rather than carry into
the next field.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import add
from typing import Iterable, Optional

from . import exact
from .packing import Packer
from .partitions import check_bound, check_int

Q, P, T, BETA, S, PSI, XI = "q", "p", "t", "b", "s", "psi", "xi"

BETA_VAR = (BETA,)
PSI_VAR = (PSI,)
XI_VAR = (XI,)


def qvar(k: int) -> tuple:
    return (Q, check_bound(k, 1, "k"))


def pvar(i: int) -> tuple:
    return (P, check_bound(i, 1, "i"))


def tvar(i: int, j: int) -> tuple:
    return (T, check_bound(i, 0, "i"), check_bound(j, 0, "j"))


def svar(k: int) -> tuple:
    return (S, check_bound(k, 1, "k"))


# The alphabets, by tag: (coordinate in the weight vector, bump, name).  A
# variable is its tag and its indices; its weight is their sum plus the bump,
# and its printed name is the name formatted with them.
_ALPHABETS = {
    Q: (0, 0, "q_{}"),  # q_k = ('q', k), k >= 1
    P: (1, 0, "p_{}"),  # p_i = ('p', i), i >= 1
    T: (2, 1, "t_{{{},{}}}"),  # t_{i,j} = ('t', i, j), i, j >= 0
    BETA: (3, 1, "beta"),  # ('b',)
    S: (4, 0, "t_{}"),  # the KP time t_k = ('s', k), k >= 1
    PSI: (5, 1, "psi"),  # ('psi',), a degree counter
    XI: (6, 1, "xi"),  # ('xi',), a degree counter
}


def mono_weights(mono: tuple) -> tuple:
    """Per-alphabet weight vector of a monomial, in _ALPHABETS' coordinates."""
    w = [0] * len(_ALPHABETS)
    for var, e in mono:
        coord, bump, _ = _ALPHABETS[var[0]]
        w[coord] += (sum(var[1:]) + bump) * e
    return tuple(w)


def mono_from_vars(vars_with_exp: Iterable) -> tuple:
    """Canonical monomial from (var, exp) pairs; equal vars are merged, so a
    monomial followed by (var, delta) pairs gives it with those shifts.  A
    merged exponent below 0 raises ValueError."""
    acc: dict = {}
    for var, e in vars_with_exp:
        acc[var] = acc.get(var, 0) + e
    for var, e in acc.items():
        if e < 0:
            raise ValueError(f"negative exponent {var}^{e}")
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


@lru_cache(maxsize=None)
def partition_mono(var, parts: tuple) -> tuple:
    """The canonical monomial of the product of var(i) over the parts i, a
    tuple in any order: the letters var(i)^e, e the multiplicity of i, by
    index.  var is a one-index alphabet such as pvar or qvar.  Memoised, so
    the monomials that share a partition share its pairs too."""
    return tuple((var(i), e) for i, e in sorted(Counter(parts).items()))


def mono_str(mono: tuple) -> str:
    """Human-readable rendering, e.g. ``q_1^2*t_{1,0}``; s-variables print as t_k."""
    names = ((_ALPHABETS[var[0]][2].format(*var[1:]), e) for var, e in mono)
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in names) or "1"


class TruncationMismatch(ValueError):
    """Raised when combining series with different truncations."""


class Truncation(namedtuple("Truncation", "q_weight p_weight t_weight beta_deg s_weight", defaults=(None,) * 5)):
    """Optional per-alphabet degree bounds, in weight-vector order (psi and
    xi are never bounded); ``None`` leaves an alphabet unbounded, and any
    other bound must be an int (TypeError otherwise, a bool is no int here).
    An immutable value that equals only another Truncation."""

    __slots__ = ()

    def __new__(cls, *bounds, **named):
        self = super().__new__(cls, *bounds, **named)
        for bound in self:
            if bound is not None:
                check_int(bound)
        return self

    def __eq__(self, other) -> bool:
        return type(other) is Truncation and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def admits_weights(self, w: tuple) -> bool:
        for bound, x in zip(self, w):  # w's psi and xi entries go unread
            if bound is not None and x > bound:
                return False
        return True

    def admits(self, mono: tuple) -> bool:
        return self.admits_weights(mono_weights(mono))

    def to_json_dict(self) -> dict:
        return {n: b for n, b in zip(self._fields, self) if b is not None}


# -- the multiply kernel: monomials packed as ints ---------------------------

# Every series' monomials are packed by one process-wide Packer (see
# .packing), with 15-bit fields: a factor's exponent e has 0 <= e < 2^14,
# and a stored one e < 2^15 = _FIELD, as a product's has.
PACKER = Packer(15)
_FIELD = 1 << PACKER.width
_UNITS: dict = {}  # field offset -> (coordinate, weight) of PACKER's letter there


def key_weights(key: int) -> tuple:
    """mono_weights of a packed monomial, read field by field."""
    if len(_UNITS) < len(PACKER.variables):  # a letter registered since
        for var, shift in PACKER.shifts.items():
            coord, bump, _ = _ALPHABETS[var[0]]
            _UNITS[shift] = coord, sum(var[1:]) + bump
    w = [0] * len(_ALPHABETS)
    width, mask = PACKER.width, PACKER.mask
    while key:  # the lowest field in use holds the lowest set bit
        shift = ((key & -key).bit_length() - 1) // width * width
        e = (key >> shift) & mask
        coord, weight = _UNITS[shift]
        w[coord] += weight * e
        key -= e << shift
    return tuple(w)


def alphabet_mask(tags) -> int:
    """Every bit of the fields of PACKER's letters in the alphabets tags:
    key & alphabet_mask({P}) is the p-part of a packed key, say."""
    mask = 0
    for var, shift in PACKER.shifts.items():
        if var[0] in tags:
            mask |= PACKER.mask << shift
    return mask


def _on_bounded_part(trunc: Truncation, f):
    """key -> f(key_weights(key)) for packed keys, f reading only the
    weights of trunc's bounded alphabets.  Memoised on the key's fields of
    those alphabets' letters, which keys that differ in psi and xi share."""
    mask = alphabet_mask({tag for tag, (coord, _, _) in _ALPHABETS.items()
                          if coord < len(trunc) and trunc[coord] is not None})
    memo: dict = {}

    def on(key: int):
        part = key & mask
        value = memo.get(part, memo)  # memo itself marks a miss
        if value is memo:
            value = memo[part] = f(key_weights(part))
        return value

    return on


def _mul_into(out: dict, left: dict, right: dict, caps: tuple):
    """out += left * right on {packed key: coefficient} buckets keyed by
    weight over the bounded alphabets, whose bounds are caps.  The truncation
    test runs once per bucket pair, and the inner loops are then
    unconditional.  A product goes into out[sum of the factors' weights][sum
    of their keys], so the inner loop adds ints where a tuple merge would
    run."""
    for kl, lt in left.items():
        for kr, rt in right.items():
            key = tuple(map(add, kl, kr))
            if any(w > cap for w, cap in zip(key, caps)):
                continue
            acc = out.setdefault(key, {})
            get = acc.get
            for pl, cl in lt.items():
                for pr, cr in rt.items():
                    p = pl + pr
                    acc[p] = get(p, 0) + cl * cr


def _render(out: dict) -> dict:
    """The nonzero entries of a _mul_into output, its empty buckets dropped."""
    buckets = {}
    for key, acc in out.items():
        bucket = {p: c for p, c in acc.items() if c}
        if bucket:
            buckets[key] = bucket
    return buckets


class GradedSeries:
    """A truncated formal power series in canonical form.

    The coefficients are int numerators over one common denominator in the
    lowest-terms form of :mod:`.exact`: ``nums`` maps each monomial, packed
    by PACKER, to a nonzero int over the positive int ``den``, and the zero
    series has den 1.  The form is unique, so equality is equality of
    (truncation, nums, den).  ``items``, ``terms``, ``term_dict`` and
    ``coefficient`` read the coefficients as Fractions, keyed by monomial
    tuple, and ``num_dict`` the numerators.

    A series is built by the constructor, from a {monomial: int or Fraction}
    dict whose monomials it checks against the truncation; by ``from_ints``,
    from int numerators keyed by packed monomials already within it (``{}``
    for zero); or as ``one`` or ``var``.
    """

    __slots__ = ("truncation", "nums", "den", "_bucketed")

    def __init__(self, truncation: Truncation, terms: Optional[dict] = None):
        """Series from a {monomial: int or Fraction} dict; zeros are dropped
        and every other monomial must lie within the truncation.  Monomials
        that pack to one key have their coefficients summed; an exponent of
        2^15 or more raises OverflowError."""
        coeffs: dict = {}
        for mono, c in (terms or {}).items():
            if exact.check(c):
                if not truncation.admits(mono):
                    raise ValueError(f"monomial {mono_str(mono)} violates truncation {truncation}")
                key = PACKER.pack(mono, _FIELD)
                coeffs[key] = coeffs[key] + c if key in coeffs else c
        self._store(truncation, *exact.from_terms(coeffs))

    def _store(self, truncation: Truncation, nums: dict, den: int):
        """Set the fields to nums / den, already in lowest terms.  Every
        series is built here."""
        self.truncation = truncation
        self.nums = nums
        self.den = den
        self._bucketed = None  # the series' own buckets, built on first use

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_ints(trunc: Truncation, nums: dict, den: int = 1) -> "GradedSeries":
        """Series nums / den from a fresh {packed monomial: int} dict over a
        positive den, whose monomials already lie within trunc (not
        re-checked), each field below 2^15.  The
        dict is kept, uncopied, unless a zero or a common factor must go."""
        return GradedSeries._of(trunc, *exact.lowest(nums, den))

    @staticmethod
    def _of(trunc: Truncation, nums: dict, den: int) -> "GradedSeries":
        """Series nums / den from a form already in lowest terms."""
        result = object.__new__(GradedSeries)
        result._store(trunc, nums, den)
        return result

    @staticmethod
    def one(trunc: Truncation) -> "GradedSeries":
        return GradedSeries.from_ints(trunc, {0: 1})

    @staticmethod
    def var(trunc: Truncation, v: tuple, exp: int = 1) -> "GradedSeries":
        return GradedSeries(trunc, {mono_from_vars([(v, exp)]): 1})

    # -- queries ------------------------------------------------------------

    def num_dict(self) -> dict:
        """A fresh {monomial: int numerator} dict, over den."""
        unpack = PACKER.unpack
        return {unpack(key): n for key, n in self.nums.items()}

    def term_dict(self) -> dict:
        """A fresh {monomial: Fraction} dict of the coefficients."""
        den, unpack = self.den, PACKER.unpack
        return {unpack(key): Fraction(n, den) for key, n in self.nums.items()}

    def items(self):
        """The (monomial, Fraction) pairs, unsorted."""
        return self.term_dict().items()

    def terms(self):
        """The (monomial, Fraction) pairs sorted by monomial (deterministic)."""
        return sorted(self.items())

    def __len__(self) -> int:
        return len(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, mono: tuple) -> Fraction:
        """Exact coefficient of a canonical monomial (0 if absent)."""
        return Fraction(self.nums.get(PACKER.pack(mono, _FIELD), 0), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return (self.truncation == other.truncation and self.den == other.den
                and self.nums == other.nums)

    def __repr__(self) -> str:
        return f"GradedSeries({len(self.nums)} terms, {self.truncation})"

    def pretty(self) -> str:
        items = self.terms()
        if not items:
            return "0"
        return " + ".join(str(c) if not m else f"{c}*{mono_str(m)}" for m, c in items)

    # -- ring operations ----------------------------------------------------

    def _require_compatible(self, other: "GradedSeries"):
        if self.truncation != other.truncation:
            raise TruncationMismatch(
                f"incompatible truncations: {self.truncation} vs {other.truncation}"
            )

    def __add__(self, other: "GradedSeries") -> "GradedSeries":
        if not isinstance(other, GradedSeries):
            return NotImplemented
        self._require_compatible(other)
        return GradedSeries._of(self.truncation, *exact.add(self.nums, self.den, other.nums, other.den))

    def __neg__(self) -> "GradedSeries":
        return GradedSeries._of(self.truncation, {m: -n for m, n in self.nums.items()}, self.den)

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def __mul__(self, other):
        """Times a series, or an int or Fraction (another scalar: TypeError)."""
        if not isinstance(other, GradedSeries):
            return GradedSeries._of(self.truncation, *exact.scale(self.nums, self.den, other))
        self._require_compatible(other)
        caps, left = self._buckets()
        out: dict = {}
        _mul_into(out, left, other._buckets()[1], caps)
        nums = {p: c for bucket in _render(out).values() for p, c in bucket.items()}
        return GradedSeries.from_ints(self.truncation, nums, self.den * other.den)

    def diff(self, var: tuple) -> "GradedSeries":
        """Formal partial derivative with respect to one variable: the term
        n m with var^e in m, e >= 1, goes to e n (m / var), one unit off its
        key, and distinct m go to distinct m / var."""
        shift, mask = PACKER.shift(var), PACKER.mask
        unit = 1 << shift
        return GradedSeries.from_ints(
            self.truncation,
            {key - unit: n * e for key, n in self.nums.items() if (e := key >> shift & mask)},
            self.den,
        )

    # -- structure maps -----------------------------------------------------

    def truncate(self, new_trunc: Truncation) -> "GradedSeries":
        """Explicit re-truncation (the only sanctioned way to change bounds);
        a key's weights are read once per part over the bounded alphabets."""
        admits = _on_bounded_part(new_trunc, new_trunc.admits_weights)
        return GradedSeries.from_ints(
            new_trunc, {k: n for k, n in self.nums.items() if admits(k)}, self.den
        )

    def map_terms(self, image) -> "GradedSeries":
        """The linear map sending each packed monomial m to the sum of c m'
        over the pairs (m', c) of image(m), m' packed and c an int: a term
        n m goes to the sum of n c m'.  Every m' must lie within the
        truncation, each field below 2^15 (not re-checked); zeros are
        dropped."""
        out: dict = {}
        get = out.get
        for key, n in self.nums.items():
            for new, c in image(key):
                out[new] = get(new, 0) + n * c
        return GradedSeries.from_ints(self.truncation, out, self.den)

    # -- exp / log ----------------------------------------------------------

    def _buckets(self) -> tuple:
        """(caps, buckets): the bounds of the truncation's bounded alphabets
        and this series' {packed key: numerator} buckets by weight over them,
        built once: a series is immutable, so its repeated products (by a
        cached z_series, say) share them.  Every key must meet the width
        rule, as a factor of the kernel (OverflowError otherwise)."""
        if self._bucketed is None:
            trunc = self.truncation
            idx = [i for i, b in enumerate(trunc) if b is not None]
            PACKER.check(self.nums)
            weigh = _on_bounded_part(trunc, lambda w: tuple(w[i] for i in idx))
            buckets: dict = {}
            for key, n in self.nums.items():
                buckets.setdefault(weigh(key), {})[key] = n
            self._bucketed = tuple(trunc[i] for i in idx), buckets
        return self._bucketed

    def _components(self) -> tuple:
        """(top grade, caps, comps): comps[n] holds the buckets of grade n,
        the grade being the total weight over the bounded alphabets."""
        caps, buckets = self._buckets()
        comps: dict = {}
        for key, bucket in buckets.items():
            if sum(key) <= 0 and bucket.keys() - {0}:  # a monomial besides 1 of no positive grade
                mono = max(map(PACKER.unpack, bucket))
                raise ValueError(f"exp/log diverges: {mono_str(mono)} has no positive grade")
            comps.setdefault(sum(key), {})[key] = bucket
        return sum(caps), caps, comps

    def _scaled_grades(self, comps: dict) -> dict:
        """{k: buckets of D^k S_k} for the grade-k parts S_k of this series,
        D = den: the numerators of grade k times D^(k-1), all ints."""
        D = self.den
        return {k: comp if k == 1 or D == 1 else
                {key: {p: n * D ** (k - 1) for p, n in b.items()} for key, b in comp.items()}
                for k, comp in comps.items() if k}

    def exp(self) -> "GradedSeries":
        """Truncated exponential; requires zero constant term.

        Solved one homogeneous component at a time along the grade, the total
        weight over the truncation's bounded alphabets (s for tau, q+p+beta
        for e^H).  With S = sum S_k and E = e^S = sum E_n, the grade
        derivation gives n E_n = sum_{k=1..n} k S_k E_{n-k}, so each step
        multiplies small homogeneous pieces, never the whole series.  It runs
        on ints: with D = den and N the top grade, F_n = N! D^n E_n is an
        int series (n! D^n E_n is), F_0 = N! and
        F_n = (sum_k k (D^k S_k) F_{n-k}) / n, the division exact
        (:func:`.exact.div` raises ArithmeticError otherwise).

        A non-constant monomial of grade <= 0 raises ValueError.
        """
        if self.nums.get(0):
            raise ValueError("series_exp requires zero constant term")
        top, caps, comps = self._components()
        kS = {k: {key: {p: n * k for p, n in b.items()} for key, b in comp.items()}
              for k, comp in self._scaled_grades(comps).items()}
        F = {0: {(0,) * len(caps): {0: factorial(top)}}}
        for n in range(1, top + 1):
            out: dict = {}
            for k, left in kS.items():
                if k <= n:
                    _mul_into(out, left, F[n - k], caps)
            F[n] = {key: {p: exact.div(c, n) for p, c in b.items()} for key, b in _render(out).items()}
            PACKER.check([p for b in F[n].values() for p in b])
        D = self.den
        nums = {p: c * D ** (top - n) for n, grade in F.items()
                for b in grade.values() for p, c in b.items()}
        return GradedSeries.from_ints(self.truncation, nums, factorial(top) * D**top)

    def log(self) -> "GradedSeries":
        """Truncated logarithm; requires constant term exactly 1.

        With T = 1 + sum_{n>=1} T_n and L = log T = sum L_n, the same
        component recursion reads n L_n = n T_n - sum_{k<n} k L_k T_{n-k}.
        It runs on ints: with D = den, U_n = D^n T_n and A_n = n D^n L_n,
        A_n = n U_n - sum_{k<n} A_k U_{n-k}.
        T - 1 must meet the grade conditions of exp().
        """
        if self.nums.get(0) != self.den:
            raise ValueError("series_log requires constant term 1")
        top, caps, comps = self._components()
        U = self._scaled_grades(comps)
        neg_A: dict = {}  # k -> buckets of -A_k
        for n in range(1, top + 1):
            out = {key: {p: c * n for p, c in b.items()} for key, b in U.get(n, {}).items()}
            for k, left in neg_A.items():
                if n - k in U:
                    _mul_into(out, left, U[n - k], caps)
            grade = _render(out)
            if grade:
                neg_A[n] = {key: {p: -c for p, c in b.items()} for key, b in grade.items()}
                PACKER.check([p for b in grade.values() for p in b])
        # L_n = A_n / (n D^n), over the common denominator lcm(n) D^last
        D, last, ns = self.den, max(neg_A, default=0), lcm(*neg_A)
        nums: dict = {}
        for n, grade in neg_A.items():
            scale = -(ns // n) * D ** (last - n)
            nums.update((p, c * scale) for b in grade.values() for p, c in b.items())
        return GradedSeries.from_ints(self.truncation, nums, ns * D**last)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for mono, n in sorted(self.num_dict().items()):
            enc = [[var[0], *var[1:], e] for var, e in mono]
            terms.append({"monomial": enc, "coeff": exact.ratio(n, self.den)})
        return {"truncation": self.truncation.to_json_dict(), "terms": terms}
