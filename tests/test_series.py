import json
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Optional

import pytest

from doublehurwitz import series
from doublehurwitz.kp import r_series
from doublehurwitz.partitions import aut_order, partitions_of
from doublehurwitz.series import (
    BETA_VAR,
    PSI_VAR,
    XI_VAR,
    GradedSeries,
    Truncation,
    TruncationMismatch,
    mono_from_vars,
    mono_str,
    mono_weights,
    pvar,
    qvar,
    svar,
    tvar,
)


def _laurent(pairs) -> tuple:
    """The reference's own canonical monomial of (variable, exponent) pairs:
    equal letters merged, zeros dropped, and an exponent of either sign
    kept, so that psi may go negative as in the paper's tau."""
    acc: dict = {}
    for var, e in pairs:
        acc[var] = acc.get(var, 0) + e
    return tuple(sorted((var, e) for var, e in acc.items() if e))


class _FractionSeries:
    """Reference: GradedSeries with one Fraction per coefficient, kept as it
    was before GradedSeries moved to int numerators over one denominator.

    A truncated formal power series in canonical form (no zero coefficients).
    """

    __slots__ = ("truncation", "_terms")

    def __init__(self, truncation: Truncation, terms: Optional[dict] = None):
        self.truncation = truncation
        self._terms = {m: Fraction(c) for m, c in (terms or {}).items() if c}
        for mono in self._terms:
            if not truncation.admits(mono):
                raise ValueError(f"monomial {mono_str(mono)} violates truncation {truncation}")

    @staticmethod
    def of(series: GradedSeries) -> "_FractionSeries":
        return _FractionSeries.from_terms(series.truncation, series.term_dict())

    @staticmethod
    def from_terms(trunc: Truncation, terms: dict) -> "_FractionSeries":
        result = _FractionSeries.__new__(_FractionSeries)
        result.truncation = trunc
        result._terms = {m: c for m, c in terms.items() if c}
        return result

    @staticmethod
    def one(trunc: Truncation) -> "_FractionSeries":
        return _FractionSeries(trunc, {(): Fraction(1)})

    def term_dict(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def constant_term(self):
        return self._terms.get((), Fraction(0))

    def __add__(self, other: "_FractionSeries") -> "_FractionSeries":
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = out.get(mono)
            out[mono] = coeff if acc is None else acc + coeff
        return _FractionSeries.from_terms(self.truncation, out)

    def __neg__(self) -> "_FractionSeries":
        return _FractionSeries.from_terms(self.truncation, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "_FractionSeries") -> "_FractionSeries":
        return self + (-other)

    def scalar_mul(self, c) -> "_FractionSeries":
        return _FractionSeries.from_terms(self.truncation, {m: v * c for m, v in self._terms.items()})

    def __mul__(self, other: "_FractionSeries") -> "_FractionSeries":
        caps, left = self._buckets()
        acc: dict = {}
        self._mul_into(acc, left, other._buckets()[1], caps)
        return _FractionSeries.from_terms(self.truncation, acc)

    def diff(self, var: tuple) -> "_FractionSeries":
        out: dict = {}
        for mono, coeff in self._terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    new = mono[:idx] + ((v, e - 1),) if e != 1 else mono[:idx]
                    new = new + mono[idx + 1 :]
                    out[new] = out.get(new, 0) + coeff * e
                    break
        return _FractionSeries.from_terms(self.truncation, out)

    def truncate(self, new_trunc: Truncation) -> "_FractionSeries":
        return _FractionSeries.from_terms(
            new_trunc, {m: c for m, c in self._terms.items() if new_trunc.admits(m)}
        )

    def _buckets(self, items=None) -> tuple:
        bounds = self.truncation
        idx = [i for i, b in enumerate(bounds) if b is not None]
        full: dict = {}
        for mono, coeff in self._terms.items() if items is None else items:
            full.setdefault(mono_weights(mono), []).append((mono, coeff))
        buckets: dict = {}
        for w, pairs in full.items():
            key = tuple(w[i] for i in idx)
            buckets[key] = buckets[key] + pairs if key in buckets else pairs
        return tuple(bounds[i] for i in idx), buckets

    def _components(self) -> tuple:
        caps, buckets = self._buckets()
        comps: dict = {}
        for key, bucket in buckets.items():
            mono = max(bucket)[0]
            if mono and sum(key) <= 0:
                raise ValueError(f"exp/log diverges: {mono_str(mono)} has no positive grade")
            comps.setdefault(sum(key), {})[key] = bucket
        return sum(caps), caps, comps

    @staticmethod
    def _mul_into(acc: dict, left: dict, right: dict, caps: tuple):
        for kl, lt in left.items():
            for kr, rt in right.items():
                if any(a + b > cap for a, b, cap in zip(kl, kr, caps)):
                    continue
                for ml, cl in lt:
                    for mr, cr in rt:
                        m = _laurent(ml + mr)
                        c = cl * cr
                        prev = acc.get(m)
                        acc[m] = c if prev is None else prev + c

    def exp(self) -> "_FractionSeries":
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
        return _FractionSeries.from_terms(self.truncation, out)

    def log(self) -> "_FractionSeries":
        if self.constant_term() != 1:
            raise ValueError("series_log requires constant term 1")
        top, caps, comps = self._components()
        neg_kL: dict = {}
        out: dict = {}
        for n in range(1, top + 1):
            acc = {m: c * n for b in comps.get(n, {}).values() for m, c in b}
            for k, left in neg_kL.items():
                if n - k in comps:
                    self._mul_into(acc, left, comps[n - k], caps)
            neg_kL[n] = self._buckets((m, -c) for m, c in acc.items() if c)[1]
            inv = Fraction(1, n)
            out.update((m, c * inv) for m, c in acc.items())
        return _FractionSeries.from_terms(self.truncation, out)


def reference_r_series(b: int) -> dict:
    """R = -(psi/xi) log tau in the paper's form, on the reference's own
    Laurent monomials: tau = 1 + sum_k xi (xi + psi) ... (xi + (k-1) psi) s~_k
    with s~_k = sum_{mu |- k} (-1)^len(mu) psi^-len(mu) t_mu / |Aut mu|, its
    log divided by xi and multiplied by -psi term by term."""
    trunc = Truncation(s_weight=b)
    xi, psi = ((XI_VAR, 1),), ((PSI_VAR, 1),)
    tau = rising = _FractionSeries.one(trunc)
    for k in range(1, b + 1):
        rising = rising * _FractionSeries(trunc, {xi: 1, psi: k - 1})
        schur = {_laurent([(svar(i), 1) for i in mu] + [(PSI_VAR, -len(mu))]):
                 Fraction((-1) ** len(mu), aut_order(mu)) for mu in partitions_of(k)}
        tau = tau + rising * _FractionSeries(trunc, schur)
    out: dict = {}
    for mono, coeff in tau.log().items():
        new = _laurent(mono + ((XI_VAR, -1), (PSI_VAR, 1)))
        out[new] = out.get(new, 0) - coeff
    return out


def test_r_series_equals_the_laurent_reference():
    # kp builds tau at t -> psi t, with no negative exponent anywhere, and
    # maps log tau back; the reference keeps the paper's psi^-len(mu)
    r = reference_r_series(8)
    assert all(e > 0 for mono in r for _, e in mono)
    assert r_series(8).term_dict() == r


TR = Truncation(q_weight=8, p_weight=8)


def q(k, e=1):
    return mono_from_vars([(qvar(k), e)])


def diagonal_series(trunc, bound):
    return GradedSeries(
        trunc,
        {
            mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
            for n in range(1, bound + 1)
        },
    )


def random_series(trunc, rng, max_terms=6, zero_constant=False):
    pool = [
        (),
        q(1),
        q(2),
        q(1, 2),
        q(3),
        mono_from_vars([(qvar(1), 1), (qvar(2), 1)]),
        mono_from_vars([(pvar(1), 1)]),
        mono_from_vars([(pvar(2), 1), (qvar(1), 1)]),
        mono_from_vars([(pvar(1), 2), (qvar(2), 1)]),
        q(4),
    ]
    terms = {}
    for mono in rng.sample(pool, rng.randint(2, max_terms)):
        if zero_constant and mono == ():
            continue
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GradedSeries(trunc, terms)


def test_coefficient_of_diagonal():
    s = diagonal_series(TR, 8)
    assert s.coefficient(mono_from_vars([(pvar(1), 1), (qvar(1), 1)])) == 1
    assert s.coefficient(q(1)) == 0


def test_diff_and_mul_basics():
    q1sq = GradedSeries(TR, {q(1, 2): Fraction(1)})
    assert q1sq.diff(qvar(1)) == GradedSeries(TR, {q(1): Fraction(2)})
    p1q1 = GradedSeries(TR, {mono_from_vars([(pvar(1), 1), (qvar(1), 1)]): Fraction(1)})
    prod = p1q1 * p1q1
    assert prod == GradedSeries(TR, {mono_from_vars([(pvar(1), 2), (qvar(1), 2)]): Fraction(1)})


def test_ring_laws_on_random_triples():
    rng = random.Random(20240811)
    for _ in range(25):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        c = random_series(TR, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_no_zero_coefficients_after_operations():
    rng = random.Random(7)
    for _ in range(20):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        for s in (a + (-a), a - a, a * b, a + b, a.diff(qvar(1))):
            assert all(c != 0 for c in s.term_dict().values())


def test_truncation_mismatch_raises():
    a = GradedSeries(Truncation(q_weight=4), {q(1): Fraction(1)})
    b = GradedSeries(Truncation(q_weight=5), {q(1): Fraction(1)})
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * b


@pytest.mark.parametrize("other", [1, Fraction(1, 2), None, "1"])
def test_adding_a_non_series_raises_type_error(other):
    # as for ZPoly: no series is an int, and an int has no truncation
    a = GradedSeries(TR, {q(1): 1})
    for op in (lambda: a + other, lambda: a - other, lambda: other + a, lambda: other - a):
        with pytest.raises(TypeError):
            op()


def test_truncation_is_an_immutable_value():
    t = Truncation(q_weight=9, s_weight=2)
    assert repr(t) == "Truncation(q_weight=9, p_weight=None, t_weight=None, beta_deg=None, s_weight=2)"
    assert t == Truncation(9, None, None, None, 2) and hash(t) == hash((9, None, None, None, 2))
    assert t != Truncation(q_weight=9) and len({t, Truncation(q_weight=9, s_weight=2)}) == 1
    # a value of its own: equal to no plain tuple holding the same bounds
    assert t != (9, None, None, None, 2) and not t == (9, None, None, None, 2)
    with pytest.raises(AttributeError):
        t.q_weight = 3
    assert t.to_json_dict() == {"q_weight": 9, "s_weight": 2}


def test_mul_prunes_beyond_truncation():
    tr = Truncation(q_weight=3)
    a = GradedSeries(tr, {q(2): Fraction(1)})
    b = GradedSeries(tr, {q(2): Fraction(1), q(1): Fraction(1)})
    assert (a * b).term_dict() == {mono_from_vars([(qvar(1), 1), (qvar(2), 1)]): Fraction(1)}


def test_exp_log_basics():
    tr = Truncation(q_weight=5)
    zero = GradedSeries.from_ints(tr, {})
    assert zero.exp() == GradedSeries.one(tr)
    one_plus_q1 = GradedSeries(tr, {(): Fraction(1), q(1): Fraction(1)})
    mercator = one_plus_q1.log()
    expected = GradedSeries(
        tr, {q(1, e): Fraction((-1) ** (e + 1), e) for e in range(1, 6)}
    )
    assert mercator == expected


def test_exp_of_diagonal_truncated_at_weight_two():
    tr = Truncation(q_weight=2, p_weight=2)
    s = diagonal_series(tr, 2)
    expected = GradedSeries(
        tr,
        {
            (): Fraction(1),
            mono_from_vars([(pvar(1), 1), (qvar(1), 1)]): Fraction(1),
            mono_from_vars([(pvar(2), 1), (qvar(2), 1)]): Fraction(1, 2),
            mono_from_vars([(pvar(1), 2), (qvar(1), 2)]): Fraction(1, 2),
        },
    )
    assert s.exp() == expected


def test_exp_log_round_trip_on_random_series():
    rng = random.Random(99)
    for _ in range(15):
        s = random_series(TR, rng, zero_constant=True)
        assert s.exp().log() == s


def test_exp_requires_zero_constant_and_log_requires_one():
    s = GradedSeries(TR, {(): Fraction(2)})
    with pytest.raises(ValueError):
        s.exp()
    with pytest.raises(ValueError):
        s.log()


def test_exp_rejects_unbounded_directions():
    s = GradedSeries(Truncation(q_weight=4), {mono_from_vars([(BETA_VAR, 1)]): Fraction(1)})
    with pytest.raises(ValueError, match="exp/log diverges: beta has no positive grade"):
        s.exp()


def test_log_rejects_unbounded_directions():
    s = GradedSeries(
        Truncation(q_weight=4), {(): Fraction(1), mono_from_vars([(BETA_VAR, 1)]): Fraction(1)}
    )
    with pytest.raises(ValueError, match="exp/log diverges: beta has no positive grade"):
        s.log()


def _power_exp(s):
    """Reference exp by power iteration, sum_j s^j / j!: each step multiplies
    the whole series (the implementation before the graded recursion)."""
    result = GradedSeries.one(s.truncation)
    power = GradedSeries.one(s.truncation)
    j = 0
    while True:
        j += 1
        power = (power * s).scalar_mul(Fraction(1, j))
        if power.is_zero():
            return result
        result = result + power


def _power_log(s):
    """Reference log by power iteration, sum_j (-1)^(j+1) u^j / j, u = s - 1."""
    u = s - GradedSeries.one(s.truncation)
    result = GradedSeries.from_ints(s.truncation, {})
    power = GradedSeries.one(s.truncation)
    j = 0
    while True:
        j += 1
        power = power * u
        if power.is_zero():
            return result
        result = result + power.scalar_mul(Fraction((-1) ** (j + 1), j))


def test_graded_exp_log_match_power_iteration_on_random_series():
    rng = random.Random(99)
    for _ in range(15):
        s = random_series(TR, rng, zero_constant=True)
        assert s.exp() == _power_exp(s)
        one_plus = s + GradedSeries.one(TR)
        assert one_plus.log() == _power_log(one_plus)


def test_graded_exp_log_match_power_iteration_on_diagonal():
    s = diagonal_series(TR, 8)
    e = s.exp()
    assert e == _power_exp(s)
    assert e.log() == _power_log(e) == s


def test_graded_log_matches_power_iteration_on_tau_and_frobenius():
    from doublehurwitz.cutjoin import frobenius_eH
    from doublehurwitz.kp import tau_series

    tau = tau_series(8)
    assert tau.log() == _power_log(tau)
    eH = frobenius_eH(5, 3)
    assert eH.log() == _power_log(eH)


def test_graded_exp_matches_power_iteration_on_evolved_potential():
    from doublehurwitz.cutjoin import evolve

    H = evolve(4, 4)
    assert H.exp() == _power_exp(H)


def test_from_terms_drops_zero_coefficients():
    s = GradedSeries(TR, {q(1): Fraction(0), q(2): Fraction(3)})
    assert s.term_dict() == {q(2): Fraction(3)}
    assert GradedSeries(TR, {q(1): Fraction(0)}).is_zero()


def test_diff_commutes():
    rng = random.Random(5)
    for _ in range(15):
        s = random_series(TR, rng)
        assert s.diff(qvar(1)).diff(qvar(2)) == s.diff(qvar(2)).diff(qvar(1))


def test_substitute_p1_shift_examples():
    from test_cutjoin import substitute_p1_shift

    tr = Truncation(q_weight=4, p_weight=4)
    p1 = pvar(1)
    sq = GradedSeries(tr, {mono_from_vars([(p1, 2)]): Fraction(1)})
    assert substitute_p1_shift(sq) == GradedSeries(
        tr,
        {mono_from_vars([(p1, 2)]): Fraction(1), mono_from_vars([(p1, 1)]): Fraction(2), (): Fraction(1)},
    )
    p2q2 = GradedSeries(tr, {mono_from_vars([(pvar(2), 1), (qvar(2), 1)]): Fraction(1)})
    assert substitute_p1_shift(p2q2) == p2q2
    p1p2 = GradedSeries(tr, {mono_from_vars([(p1, 1), (pvar(2), 1)]): Fraction(1)})
    assert substitute_p1_shift(p1p2) == GradedSeries(
        tr,
        {
            mono_from_vars([(p1, 1), (pvar(2), 1)]): Fraction(1),
            mono_from_vars([(pvar(2), 1)]): Fraction(1),
        },
    )


def test_json_dict_is_bit_exact():
    tr = Truncation(q_weight=8, p_weight=8, t_weight=6, beta_deg=3)
    terms = {
        mono_from_vars([(qvar(2), 1), (pvar(1), 2)]): Fraction(1, 2),
        mono_from_vars([(tvar(1, 0), 1), (BETA_VAR, 2)]): Fraction(-5, 3),
        (): Fraction(7),
    }
    # the form `h-series --format json` writes
    assert GradedSeries(tr, terms).to_json_dict() == {
        "truncation": {"q_weight": 8, "p_weight": 8, "t_weight": 6, "beta_deg": 3},
        "terms": [
            {"monomial": [], "coeff": "7/1"},
            {"monomial": [["b", 2], ["t", 1, 0, 1]], "coeff": "-5/3"},
            {"monomial": [["p", 1, 2], ["q", 2, 1]], "coeff": "1/2"},
        ],
    }
    rng = random.Random(13)
    for _ in range(10):
        s = random_series(TR, rng)
        data = s.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert [Fraction(t["coeff"]) for t in data["terms"]] == [c for _, c in s.terms()]


def test_mono_weights_and_str():
    m = mono_from_vars([(qvar(3), 2), (tvar(1, 2), 1)])
    assert mono_weights(m) == (6, 0, 4, 0, 0, 0, 0)
    assert mono_str(m) == "q_3^2*t_{1,2}"
    assert mono_str(()) == "1"
    # every alphabet: one letter each, in weight-vector order
    letters = [((qvar(2), 3), (0, 6), "q_2^3"), ((pvar(4), 1), (1, 4), "p_4"),
               ((tvar(0, 0), 2), (2, 2), "t_{0,0}^2"), ((BETA_VAR, 5), (3, 5), "beta^5"),
               ((svar(3), 2), (4, 6), "t_3^2"), ((PSI_VAR, 1), (5, 1), "psi"),
               ((XI_VAR, 4), (6, 4), "xi^4")]
    for letter, (coord, weight), name in letters:
        expected = [0] * 7
        expected[coord] = weight
        assert mono_weights((letter,)) == tuple(expected)
        assert mono_str((letter,)) == name
    mixed = mono_from_vars([letter for letter, _, _ in letters])
    assert mono_weights(mixed) == (6, 4, 2, 5, 6, 1, 4)
    assert mono_str(mixed) == "beta^5*p_4*psi*q_2^3*t_3^2*t_{0,0}^2*xi^4"


def test_map_terms_is_the_linear_map_of_its_image():
    x, y = mono_from_vars([(qvar(1), 1)]), mono_from_vars([(qvar(2), 1)])
    s = GradedSeries(TR, {(): Fraction(1, 2), x: Fraction(1, 3), y: 2})
    # x -> 3 y - x, y -> 2 x, 1 -> nothing: (1/3)(3y - x) + 2 (2x) = y + (11/3) x
    image = {(): (), x: ((y, 3), (x, -1)), y: ((x, 2),)}
    assert s.map_terms(image.__getitem__) == GradedSeries(TR, {x: Fraction(11, 3), y: 1})
    # images that cancel leave the zero series in lowest terms
    cancel = s.map_terms(lambda m: ((x, 1), (x, -1)))
    assert cancel.is_zero() and cancel.den == 1
    assert s.map_terms(lambda m: ((m, 1),)) == s


def naive_mul(a, b):
    """Term-pair reference product, no weight bucketing."""
    trunc = a.truncation
    acc = {}
    for ml, cl in a.term_dict().items():
        for mr, cr in b.term_dict().items():
            m = mono_from_vars(ml + mr)
            if trunc.admits(m):
                acc[m] = acc.get(m, 0) + cl * cr
    return GradedSeries(trunc, acc)


def test_bucketed_mul_matches_naive_reference():
    rng = random.Random(2718)
    for _ in range(25):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        assert a * b == naive_mul(a, b)


def test_mono_from_vars_refuses_a_negative_exponent():
    for var in (PSI_VAR, XI_VAR, svar(1), qvar(2), BETA_VAR):
        with pytest.raises(ValueError, match="negative exponent"):
            mono_from_vars([(var, -1)])
        with pytest.raises(ValueError, match="negative exponent"):
            mono_from_vars([(var, 2), (qvar(1), 1), (var, -3)])
        assert mono_from_vars([(var, 2), (var, -2)]) == ()


@pytest.mark.parametrize("coeff", [0.5, True, 1j, "1", None])
def test_constructors_reject_inexact_coefficients(coeff):
    tr = Truncation(q_weight=3)
    with pytest.raises(TypeError):
        GradedSeries(tr, {(): 1, q(1): coeff})
    with pytest.raises(TypeError):
        GradedSeries(tr, {q(1): coeff})
    with pytest.raises(TypeError):
        GradedSeries(tr, {q(1): 1}).scalar_mul(coeff)


def _assert_lowest_terms(s: GradedSeries):
    assert type(s.den) is int and s.den > 0
    assert all(type(n) is int and n for n in s.nums.values())
    assert gcd(s.den, *s.nums.values()) == 1  # the zero series has den 1


def test_views_read_the_int_form_as_fractions():
    s = GradedSeries(TR, {(): Fraction(3, 4), q(1): Fraction(-1, 6), q(2): 2})
    assert (s.nums, s.den) == ({(): 9, q(1): -2, q(2): 24}, 12)
    assert s.term_dict() == {(): Fraction(3, 4), q(1): Fraction(-1, 6), q(2): 2}
    assert all(type(c) is Fraction for _, c in s.items())
    assert s.coefficient(q(1)) == Fraction(-1, 6) and s.coefficient(q(3)) == 0
    assert s.coefficient(()) == Fraction(3, 4)
    assert GradedSeries.from_ints(TR, {q(1): 6, q(2): 4, q(3): 0}, 8) == GradedSeries(
        TR, {q(1): Fraction(3, 4), q(2): Fraction(1, 2)}
    )
    zero = s - s
    assert zero.is_zero() and zero.den == 1


# (truncation, bounded letters, and whether psi and xi ride along, each
# unbounded, with exponents up to 5 and 2)
_ALPHABETS = [
    (Truncation(q_weight=5), [qvar(k) for k in (1, 2, 3)], False),
    (Truncation(q_weight=5, p_weight=5, beta_deg=3),
     [qvar(1), qvar(2), pvar(1), pvar(2), BETA_VAR], False),
    (Truncation(s_weight=5), [svar(k) for k in (1, 2, 3)], True),
    (Truncation(t_weight=4), [tvar(0, 0), tvar(1, 0), tvar(0, 1)], False),
]


def _drawn_series(draw, st, trunc, letters, psi_xi_ride):
    """A series with a drawn constant (possibly 0) and up to 6 more terms,
    each with a positive grade."""
    small = st.integers(-9, 9)
    coeff = st.builds(Fraction, small, st.integers(1, 12))
    letter = st.sampled_from(letters)
    psi_xi = st.tuples(st.integers(0, 5), st.integers(0, 2)) if psi_xi_ride else st.just((0, 0))
    term = st.tuples(st.lists(letter, min_size=1, max_size=3), psi_xi, coeff)
    terms = {(): draw(coeff)}
    for product, (psi_e, xi_e), c in draw(st.lists(term, max_size=6)):
        mono = mono_from_vars([(v, 1) for v in product] + [(PSI_VAR, psi_e), (XI_VAR, xi_e)])
        if trunc.admits(mono):
            terms[mono] = c
    return GradedSeries(trunc, terms)


def test_int_kernels_match_the_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        trunc, letters, psi_xi_ride = data.draw(st.sampled_from(_ALPHABETS))
        a = _drawn_series(data.draw, st, trunc, letters, psi_xi_ride)
        b = _drawn_series(data.draw, st, trunc, letters, psi_xi_ride)
        c = data.draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 7)))
        ra, rb = _FractionSeries.of(a), _FractionSeries.of(b)
        small = Truncation(*(None if x is None else x - 1 for x in trunc))
        var = data.draw(st.sampled_from(letters))
        pairs = [
            (a + b, ra + rb), (a - b, ra - rb), (-a, -ra), (a * b, ra * rb),
            (a.scalar_mul(c), ra.scalar_mul(c)), (a.diff(var), ra.diff(var)),
            (a.truncate(small), ra.truncate(small)),
        ]
        s = a - GradedSeries.from_ints(trunc, {(): a.nums.get((), 0)}, a.den)  # no constant
        rs = _FractionSeries.of(s)
        pairs += [(s.exp(), rs.exp()), ((s + GradedSeries.one(trunc)).log(),
                                         (rs + _FractionSeries.one(trunc)).log())]
        for got, ref in pairs:
            _assert_lowest_terms(got)
            assert got.truncation == ref.truncation
            assert got.term_dict() == ref.term_dict()

    check()


# A series exponent e packs when 0 <= e < 2^14, the width rule of the
# kernel's 15-bit fields.
LIMIT = 1 << 14
_pack = series.PACKER.pack

# One letter of each of the seven alphabets per entry, with the exponents a
# random monomial may give it.
_PACK_LETTERS = (
    [(qvar(k), range(1, 13)) for k in range(1, 7)]
    + [(pvar(i), range(1, 13)) for i in range(1, 7)]
    + [(tvar(i, j), range(1, 13)) for i in range(3) for j in range(3)]
    + [(BETA_VAR, range(1, 13))]
    + [(svar(k), range(1, 13)) for k in range(1, 7)]
    + [(PSI_VAR, range(1, 13)), (XI_VAR, range(1, 13))]
)


def _random_mono(rng):
    letters = rng.sample(_PACK_LETTERS, rng.randint(0, 6))
    return mono_from_vars([(var, rng.choice(exps)) for var, exps in letters])


def test_packing_is_linear_and_injective_on_products():
    rng = random.Random(1618)
    seen: dict = {}  # packed product -> monomial
    for _ in range(3000):
        a, b = _random_mono(rng), _random_mono(rng)
        prod = mono_from_vars(a + b)
        assert _pack(prod) == _pack(a) + _pack(b)
        assert seen.setdefault(_pack(prod), prod) == prod
    assert _pack(()) == 0


def test_packing_refuses_an_exponent_at_the_limit():
    tr = Truncation()
    one = GradedSeries.one(tr)
    for e in (1, LIMIT - 1):
        mono = mono_from_vars([(PSI_VAR, e)])
        assert (GradedSeries(tr, {mono: 1}) * one).nums == {mono: 1}
    for mono in ([(PSI_VAR, LIMIT)], [(qvar(1), 1), (qvar(2), LIMIT)]):
        with pytest.raises(OverflowError):
            GradedSeries(tr, {mono_from_vars(mono): 1}) * one
    assert issubclass(OverflowError, ArithmeticError)  # so the CLI exits 4


def test_series_product_refuses_an_exponent_at_the_limit():
    tr = Truncation()
    big = GradedSeries(tr, {mono_from_vars([(qvar(1), LIMIT)]): 1})
    small = GradedSeries(tr, {mono_from_vars([(qvar(2), 1)]): 1})
    with pytest.raises(OverflowError):
        small * big
    # a product of two in-range exponents is exact, and packs no further
    top = GradedSeries(tr, {mono_from_vars([(qvar(1), LIMIT - 1)]): 2})
    square = top * top
    assert square.nums == {mono_from_vars([(qvar(1), 2 * LIMIT - 2)]): 4}
    with pytest.raises(OverflowError):
        square * top


def test_exp_and_log_pack_each_input_term_once(monkeypatch):
    # the kernel's products come out in the form it reads, so exp and log
    # feed each grade back in without packing a product again
    packed = []
    monkeypatch.setattr(series.PACKER, "pack", lambda mono: packed.append(mono) or _pack(mono))
    rng = random.Random(21)
    for _ in range(20):
        S = random_series(TR, rng, max_terms=8, zero_constant=True)
        T = GradedSeries.one(TR) + S
        for arg, op in ((S, GradedSeries.exp), (T, GradedSeries.log)):
            packed.clear()
            assert len(op(arg)) > len(arg)  # products were taken
            assert sorted(packed) == sorted(arg.nums)


def test_exp_and_log_drop_cancelled_products_before_the_width_rule():
    # with u = s_1 psi^6000 and w = q_1 psi^6000, e^(u - u^2/2 + w) is
    # 1 + u + w + uw: the grade-3 products u * uw and u^2 * w cancel on
    # s_1^2 q_1 psi^18000, past the width rule, and so do u * u and u^2 in
    # log; a cancelled product is dropped before the rule is checked
    assert 12000 < LIMIT <= 18000
    tr = Truncation(q_weight=1, s_weight=2)
    u = mono_from_vars([(svar(1), 1), (PSI_VAR, 6000)])
    w = mono_from_vars([(qvar(1), 1), (PSI_VAR, 6000)])
    S = GradedSeries(tr, {u: 1, mono_from_vars(u + u): Fraction(-1, 2), w: 1})
    T = GradedSeries(tr, {(): 1, u: 1, w: 1, mono_from_vars(u + w): 1})
    assert S.exp() == T
    assert T.log() == S


def test_exp_and_log_refuse_an_exponent_past_the_limit():
    # s_1 psi^10000 has psi^20000 in its square, the second grade, which exp
    # and log would feed back into the kernel as a factor
    assert 10000 < LIMIT <= 20000
    tr = Truncation(s_weight=6)
    S = GradedSeries(tr, {mono_from_vars([(svar(1), 1), (PSI_VAR, 10000)]): 1})
    with pytest.raises(OverflowError):
        S.exp()
    with pytest.raises(OverflowError):
        (GradedSeries.one(tr) + S).log()


# Registers the q, p and beta letters first ("qpb") or the psi, xi, s and t
# letters first, then prints four results' JSON and pretty forms, and last
# the packed keys of their monomials.  The KP residual is zero; R = -(psi/xi)
# log tau, which it is built from, is not.
_REGISTRY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from doublehurwitz import series
from doublehurwitz.cutjoin import frobenius_eH
from doublehurwitz.kp import kp_residual, r_series
from doublehurwitz.series import (BETA_VAR, PSI_VAR, XI_VAR, GradedSeries, Truncation,
                                  mono_from_vars, pvar, qvar, svar, tvar)
qpb = [qvar(k) for k in range(1, 9)] + [pvar(k) for k in range(1, 9)] + [BETA_VAR]
rest = [PSI_VAR, XI_VAR] + [svar(k) for k in range(1, 9)] + [tvar(i, j) for i in range(3) for j in range(3)]
for var in (qpb + rest if sys.argv[2] == "qpb" else rest + qpb):
    series.PACKER.pack([(var, 1)])
tr = Truncation(q_weight=4, p_weight=4, t_weight=3, beta_deg=2, s_weight=4)
mixed = GradedSeries(tr, {
    (): 1,
    mono_from_vars([(qvar(1), 1), (pvar(1), 1), (BETA_VAR, 1)]): 2,
    mono_from_vars([(svar(1), 1), (PSI_VAR, 1), (XI_VAR, 1)]): -1,
    mono_from_vars([(tvar(0, 0), 1), (qvar(2), 1), (PSI_VAR, 2)]): 3,
    mono_from_vars([(pvar(2), 1), (svar(2), 1), (tvar(1, 0), 1)]): 5,
})
results = [frobenius_eH(5, 3).log(), kp_residual(6), r_series(6), mixed * mixed * mixed]
for s in results:
    print(json.dumps(s.to_json_dict()))
    print(s.pretty())
print([sorted(series.PACKER.pack(m) for m in s.nums) for s in results])
"""


def test_outputs_do_not_depend_on_letter_registration_order():
    src = str(Path(series.__file__).parents[1])
    runs = [subprocess.run([sys.executable, "-c", _REGISTRY_PROBE, src, order], capture_output=True, text=True)
            for order in ("qpb", "rest")]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    first, second = (run.stdout.splitlines() for run in runs)
    assert len(first) == len(second) == 9
    assert first[:8] == second[:8]
    assert first[8] != second[8]  # the packed keys themselves differ


def test_outputs_do_not_depend_on_term_insertion_order():
    # q_1 and q_1 psi share a bucket (equal weight over the bounded alphabets)
    # under different full weight vectors, so _buckets merges them
    from doublehurwitz.cli import _series_rows

    trunc = Truncation(q_weight=3, p_weight=3)
    q1, q2, p1, p2 = qvar(1), qvar(2), pvar(1), pvar(2)
    terms = {
        mono_from_vars([(q1, 1)]): Fraction(1),
        mono_from_vars([(q1, 1), (PSI_VAR, 1)]): Fraction(2),
        mono_from_vars([(p1, 1), (q1, 1)]): Fraction(1, 2),
        mono_from_vars([(q2, 1), (PSI_VAR, 2)]): Fraction(3),
        mono_from_vars([(p2, 1), (XI_VAR, 1)]): Fraction(-1, 3),
        mono_from_vars([(p1, 2), (q1, 1)]): Fraction(5, 7),
    }

    def outputs(terms):
        s = GradedSeries(trunc, terms)
        results = (s * s, s.exp(), (GradedSeries.one(trunc) + s).log())
        return [(r, r.pretty(), r.to_json_dict(), _series_rows(r)) for r in results]

    forward = outputs(terms)
    assert forward == outputs(dict(reversed(terms.items())))
    assert all(len(r) > len(terms) for r, *_ in forward)
