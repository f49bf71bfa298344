"""Sparse, graded, truncated multivariate power series over exact coefficients.

Variables live in seven alphabets, each with its own grading:

==========  =============  ======================  =================
alphabet    variables      encoding                weight
==========  =============  ======================  =================
q           q_1, q_2, ...  ('q', k)                k
p           p_1, p_2, ...  ('p', i)                i
t           t_{i,j}        ('t', i, j), i,j >= 0   i + j + 1
beta        beta           ('b',)                  1 per power
s           t_1, t_2, ...  ('s', k)                k   (KP times)
psi         psi            ('psi',)                degree counter
xi          xi             ('xi',)                 degree counter
==========  =============  ======================  =================

A monomial is a tuple of (variable, exponent) pairs sorted by variable;
exponents are nonzero, and only psi may carry negative exponents.  A
:class:`Truncation` fixes optional upper bounds on the q, p, t, beta and s
weights (psi and xi are never bounded); a series stores
only monomials within its truncation and all its coefficients are exact up to
those bounds.  Series are immutable values: every operation returns a new
series and two series are equal iff they have the same truncation and terms.

Coefficients are ``fractions.Fraction``s.  The one exception is inside
:func:`.cutjoin.evolve`, which returns H with Fraction coefficients: the
beta-slices D H_m that it passes through :func:`.cutjoin.cut_join_apply`
hold int numerators over one common denominator D.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

Q, P, T, BETA, S, PSI, XI = "q", "p", "t", "b", "s", "psi", "xi"

BETA_VAR = (BETA,)
PSI_VAR = (PSI,)
XI_VAR = (XI,)


def qvar(k: int) -> tuple:
    if k < 1:
        raise ValueError("q-index must be >= 1")
    return (Q, k)


def pvar(i: int) -> tuple:
    if i < 1:
        raise ValueError("p-index must be >= 1")
    return (P, i)


def tvar(i: int, j: int) -> tuple:
    if i < 0 or j < 0:
        raise ValueError("t-indices must be >= 0")
    return (T, i, j)


def svar(k: int) -> tuple:
    if k < 1:
        raise ValueError("s-index must be >= 1")
    return (S, k)


# Weight vector coordinates: (q, p, t, beta, s, psi, xi).
_NWEIGHTS = 7
_COORD = {Q: 0, P: 1, T: 2, BETA: 3, S: 4, PSI: 5, XI: 6}


def mono_weights(mono: tuple) -> tuple:
    """Per-alphabet weight vector of a monomial."""
    w = [0] * _NWEIGHTS
    for var, e in mono:
        tag = var[0]
        if tag == Q:
            w[0] += var[1] * e
        elif tag == P:
            w[1] += var[1] * e
        elif tag == T:
            w[2] += (var[1] + var[2] + 1) * e
        elif tag == BETA:
            w[3] += e
        elif tag == S:
            w[4] += var[1] * e
        elif tag == PSI:
            w[5] += e
        else:
            w[6] += e
    return tuple(w)


def mono_mul(m1: tuple, m2: tuple) -> tuple:
    """Product of two canonical monomials (merge of sorted exponent vectors)."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            e = e1 + e2
            if e != 0:
                out.append((v1, e))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_from_vars(vars_with_exp: Iterable) -> tuple:
    """Canonical monomial from (var, exp) pairs; equal vars are merged."""
    acc: dict = {}
    for var, e in vars_with_exp:
        acc[var] = acc.get(var, 0) + e
    for var, e in acc.items():
        if e < 0 and var != PSI_VAR:
            raise ValueError(f"negative exponent only allowed on psi, got {var}^{e}")
    return tuple(sorted((v, e) for v, e in acc.items() if e != 0))


def mono_adjust(mono: tuple, deltas: dict) -> tuple:
    """Shift exponents of selected variables; results must stay nonnegative
    (psi excepted)."""
    acc = dict(mono)
    for var, d in deltas.items():
        e = acc.get(var, 0) + d
        if e < 0 and var != PSI_VAR:
            raise ValueError(f"negative exponent in monomial surgery on {var}")
        if e == 0:
            acc.pop(var, None)
        else:
            acc[var] = e
    return tuple(sorted(acc.items()))


def mono_str(mono: tuple) -> str:
    """Human-readable rendering, e.g. ``q_1^2*t_{1,0}``; s-variables print as t_k."""
    if not mono:
        return "1"
    parts = []
    for var, e in mono:
        tag = var[0]
        if tag == Q:
            name = f"q_{var[1]}"
        elif tag == P:
            name = f"p_{var[1]}"
        elif tag == T:
            name = f"t_{{{var[1]},{var[2]}}}"
        elif tag == BETA:
            name = "beta"
        elif tag == S:
            name = f"t_{var[1]}"
        elif tag == PSI:
            name = "psi"
        else:
            name = "xi"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


class TruncationMismatch(ValueError):
    """Raised when combining series with different truncations."""


@dataclass(frozen=True)
class Truncation:
    """Optional per-alphabet degree bounds; ``None`` leaves an alphabet unbounded."""

    q_weight: Optional[int] = None
    p_weight: Optional[int] = None
    t_weight: Optional[int] = None
    beta_deg: Optional[int] = None
    s_weight: Optional[int] = None

    def bounds(self) -> tuple:
        """The bounds in weight-vector order; psi and xi are never bounded."""
        return (self.q_weight, self.p_weight, self.t_weight, self.beta_deg, self.s_weight)

    def admits_weights(self, w: tuple) -> bool:
        for bound, x in zip(self.bounds(), w):  # w's psi and xi entries go unread
            if bound is not None and x > bound:
                return False
        return True

    def admits(self, mono: tuple) -> bool:
        return self.admits_weights(mono_weights(mono))

    def to_json_dict(self) -> dict:
        names = ("q_weight", "p_weight", "t_weight", "beta_deg", "s_weight")
        return {n: b for n, b in zip(names, self.bounds()) if b is not None}


class GradedSeries:
    """A truncated formal power series in canonical form (no zero coefficients)."""

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: Truncation, terms: Optional[dict] = None):
        self.truncation = truncation
        self._terms = {m: c for m, c in (terms or {}).items() if c}
        for mono in self._terms:
            if not truncation.admits(mono):
                raise ValueError(f"monomial {mono_str(mono)} violates truncation {truncation}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_terms(trunc: Truncation, terms: dict) -> "GradedSeries":
        """Series from a fresh {monomial: coefficient} dict whose monomials
        already lie within trunc (not re-checked).  Zero coefficients are
        dropped; without any, the series keeps terms itself, uncopied."""
        if not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        result = GradedSeries.__new__(GradedSeries)
        result.truncation = trunc
        result._terms = terms
        return result

    @staticmethod
    def zero(trunc: Truncation) -> "GradedSeries":
        return GradedSeries(trunc)

    @staticmethod
    def one(trunc: Truncation) -> "GradedSeries":
        return GradedSeries(trunc, {(): Fraction(1)})

    @staticmethod
    def var(trunc: Truncation, v: tuple, exp: int = 1) -> "GradedSeries":
        return GradedSeries(trunc, {mono_from_vars([(v, exp)]): Fraction(1)})

    # -- queries ------------------------------------------------------------

    def terms(self):
        """Items sorted by monomial order (deterministic)."""
        return sorted(self._terms.items())

    def term_dict(self) -> dict:
        """A fresh copy of the {monomial: coefficient} dict."""
        return dict(self._terms)

    def items(self):
        """Read-only view of the (monomial, coefficient) pairs, unsorted."""
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: tuple):
        """Exact coefficient of a canonical monomial (0 if absent)."""
        return self._terms.get(mono, Fraction(0))

    def constant_term(self):
        return self._terms.get((), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return self.truncation == other.truncation and self._terms == other._terms

    def __hash__(self):
        raise TypeError("GradedSeries is not hashable")

    def __repr__(self) -> str:
        return f"GradedSeries({len(self._terms)} terms, {self.truncation})"

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
        self._require_compatible(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
        return GradedSeries.from_terms(self.truncation, out)

    def __neg__(self) -> "GradedSeries":
        return GradedSeries.from_terms(self.truncation, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "GradedSeries") -> "GradedSeries":
        return self + (-other)

    def scalar_mul(self, c) -> "GradedSeries":
        return GradedSeries.from_terms(self.truncation, {m: v * c for m, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        self._require_compatible(other)
        caps, left = self._buckets()
        acc: dict = {}
        self._mul_into(acc, left, other._buckets()[1], caps)
        return GradedSeries.from_terms(self.truncation, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        return NotImplemented

    def diff(self, var: tuple) -> "GradedSeries":
        """Formal partial derivative with respect to one variable."""
        out: dict = {}
        for mono, coeff in self._terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    new = mono[:idx] + ((v, e - 1),) if e != 1 else mono[:idx]
                    new = new + mono[idx + 1 :]
                    out[new] = out.get(new, 0) + coeff * e
                    break
        return GradedSeries.from_terms(self.truncation, out)

    # -- structure maps -----------------------------------------------------

    def truncate(self, new_trunc: Truncation) -> "GradedSeries":
        """Explicit re-truncation (the only sanctioned way to change bounds)."""
        return GradedSeries.from_terms(
            new_trunc, {m: c for m, c in self._terms.items() if new_trunc.admits(m)}
        )

    def map_terms(self, fn) -> "GradedSeries":
        """New series with coefficient fn(mono, coeff); zeros are dropped."""
        return GradedSeries.from_terms(
            self.truncation, {m: fn(m, c) for m, c in self._terms.items()}
        )

    # -- exp / log ----------------------------------------------------------

    def _buckets(self, items=None) -> tuple:
        """(caps, buckets): the bounds of the truncation's bounded alphabets,
        and the (monomial, coefficient) pairs (this series' by default)
        listed by their weight vector over those alphabets."""
        bounds = self.truncation.bounds()
        idx = [i for i, b in enumerate(bounds) if b is not None]
        full: dict = {}
        for mono, coeff in self._terms.items() if items is None else items:
            full.setdefault(mono_weights(mono), []).append((mono, coeff))
        buckets: dict = {}
        for w, pairs in full.items():  # merge vectors with equal bounded part
            key = tuple(w[i] for i in idx)
            buckets[key] = buckets[key] + pairs if key in buckets else pairs
        return tuple(bounds[i] for i in idx), buckets

    def _components(self) -> tuple:
        """(top grade, caps, comps): comps[n] holds the buckets of grade n,
        the grade being the total weight over the bounded alphabets."""
        caps, buckets = self._buckets()
        comps: dict = {}
        for key, bucket in buckets.items():
            mono = max(bucket)[0]  # () sorts first
            if mono and sum(key) <= 0:
                raise ValueError(f"exp/log diverges: {mono_str(mono)} has no positive grade")
            comps.setdefault(sum(key), {})[key] = bucket
        return sum(caps), caps, comps

    @staticmethod
    def _mul_into(acc: dict, left: dict, right: dict, caps: tuple):
        """acc += left * right on buckets; the truncation test runs once per
        bucket pair, and the inner loops are then unconditional."""
        for kl, lt in left.items():
            for kr, rt in right.items():
                if any(a + b > cap for a, b, cap in zip(kl, kr, caps)):
                    continue
                for ml, cl in lt:
                    for mr, cr in rt:
                        m = mono_mul(ml, mr)
                        c = cl * cr
                        prev = acc.get(m)
                        acc[m] = c if prev is None else prev + c

    def exp(self) -> "GradedSeries":
        """Truncated exponential; requires zero constant term.

        Solved one homogeneous component at a time along the grade, the total
        weight over the truncation's bounded alphabets (s for tau, q+p+beta
        for e^H).  With S = sum S_k and E = e^S = sum E_n, the grade
        derivation gives n E_n = sum_{k=1..n} k S_k E_{n-k}, so each step
        multiplies small homogeneous pieces, never the whole series.

        A non-constant monomial of grade <= 0 raises ValueError.
        """
        if self.constant_term() != 0:
            raise ValueError("series_exp requires zero constant term")
        top, caps, comps = self._components()
        kS = {k: self._buckets((m, c * k) for b in comp.values() for m, c in b)[1]
              for k, comp in comps.items()}
        out = {(): Fraction(1)}
        E = {0: self._buckets(out.items())[1]}
        for n in range(1, top + 1):
            acc: dict = {}
            for k, left in kS.items():
                if k <= n:
                    self._mul_into(acc, left, E[n - k], caps)
            inv = Fraction(1, n)
            acc = {m: c * inv for m, c in acc.items() if c}
            out.update(acc)
            E[n] = self._buckets(acc.items())[1]
        return GradedSeries.from_terms(self.truncation, out)

    def log(self) -> "GradedSeries":
        """Truncated logarithm; requires constant term exactly 1.

        With T = 1 + sum_{n>=1} T_n and L = log T = sum L_n, the same
        component recursion reads n L_n = n T_n - sum_{k<n} k L_k T_{n-k}.
        T - 1 must meet the grade conditions of exp().
        """
        if self.constant_term() != 1:
            raise ValueError("series_log requires constant term 1")
        top, caps, comps = self._components()
        neg_kL: dict = {}  # k -> -k L_k, bucketed
        out: dict = {}
        for n in range(1, top + 1):
            acc = {m: c * n for b in comps.get(n, {}).values() for m, c in b}
            for k, left in neg_kL.items():
                if n - k in comps:
                    self._mul_into(acc, left, comps[n - k], caps)
            neg_kL[n] = self._buckets((m, -c) for m, c in acc.items() if c)[1]
            inv = Fraction(1, n)
            out.update((m, c * inv) for m, c in acc.items())
        return GradedSeries.from_terms(self.truncation, out)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        terms = []
        for mono, coeff in self.terms():
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError("JSON serialization supports rational coefficients only")
            f = Fraction(coeff)
            enc = [[var[0], *var[1:], e] for var, e in mono]
            terms.append({"monomial": enc, "coeff": f"{f.numerator}/{f.denominator}"})
        return {"truncation": self.truncation.to_json_dict(), "terms": terms}
