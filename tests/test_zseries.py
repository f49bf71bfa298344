import itertools
import json
import operator
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path
from typing import Optional

import pytest

from doublehurwitz import zseries
from doublehurwitz.recursion import XTABLE_VERSION, h_poly, populate_table
from doublehurwitz.series import GradedSeries, Truncation, key_weights, mono_from_vars, qvar, tvar
from doublehurwitz.zseries import (
    ZPoly,
    check_eqzred,
    check_psi_string_dilaton,
    psi_series,
    z_series,
    zgen_euler,
    zgen_weighted_euler,
    zpoly_eval,
    zpoly_euler,
    zpoly_values_equal,
    zpoly_weighted_euler,
    _t_raise,
    _zpoly_derivation,
)


def _as_coeff(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class _FractionZPoly:
    """Reference: the ZPoly ring with one Fraction per coefficient, kept as it
    was before ZPoly moved to int numerators over one denominator.

    Polynomial with rational coefficients in the generators z_{d,r}.

    Keys are sorted tuples of (d, r) pairs (monomials in the generators);
    the empty tuple is the constant monomial.  Structural equality is exact
    form equality; since the z-series satisfy polynomial relations, use
    :func:`zpoly_eval` to decide mathematical equality of values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                c = _as_coeff(coeff)
                if c != 0:
                    self.terms[tuple(sorted(tuple(g) for g in key))] = c

    @staticmethod
    def constant(c) -> "_FractionZPoly":
        return _FractionZPoly({(): c})

    @staticmethod
    def gen(d: int, r: int) -> "_FractionZPoly":
        if d < 0 or r < 1:
            raise ValueError("generator needs d >= 0, r >= 1")
        return _FractionZPoly({((d, r),): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, _FractionZPoly):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other) -> "_FractionZPoly":
        if not isinstance(other, _FractionZPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            c = out.get(key, 0) + coeff
            if c == 0:
                out.pop(key, None)
            else:
                out[key] = c
        result = _FractionZPoly()
        result.terms = out
        return result

    def __neg__(self) -> "_FractionZPoly":
        result = _FractionZPoly()
        result.terms = {k: -c for k, c in self.terms.items()}
        return result

    def __sub__(self, other) -> "_FractionZPoly":
        return self + -other

    def __mul__(self, other) -> "_FractionZPoly":
        if isinstance(other, (int, Fraction)):
            result = _FractionZPoly()
            if other != 0:
                result.terms = {k: c * other for k, c in self.terms.items()}
            return result
        if not isinstance(other, _FractionZPoly):
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(sorted(k1 + k2))
                c = out.get(key, 0) + c1 * c2
                if c == 0:
                    out.pop(key, None)
                else:
                    out[key] = c
        result = _FractionZPoly()
        result.terms = out
        return result

    @staticmethod
    def combine(triples) -> "_FractionZPoly":
        """The sum of c * a * b over (c, a, b) triples (b = None for 1), built
        only from this ring's own + and *."""
        total = _FractionZPoly()
        for c, a, b in triples:
            total = total + (a if b is None else a * b) * c
        return total

    def __repr__(self) -> str:
        return f"_FractionZPoly({self.pretty()})"

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            if not key:
                chunks.append(str(coeff))
                continue
            gens: dict = {}
            for g in key:
                gens[g] = gens.get(g, 0) + 1
            body = "*".join(
                f"z_{{{d},{r}}}" + (f"^{e}" if e > 1 else "")
                for (d, r), e in sorted(gens.items())
            )
            if coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                cs = str(coeff) if coeff.denominator == 1 else f"({coeff})"
                chunks.append(f"{cs}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")


def reference_json_list(poly) -> list:
    """Reference encoder: the dict tree that json.dumps turns into a
    polynomial's JSON, one {"gens": [[d, r], ...], "coeff": "num/den"} per
    term, sorted by monomial tuple, each coefficient a lowest-terms
    Fraction.  It reads only ``terms``, so it encodes a ZPoly and a
    _FractionZPoly alike."""
    return [{"gens": [list(g) for g in gens], "coeff": f"{c.numerator}/{c.denominator}"}
            for gens, c in sorted(poly.terms.items())]


def reference_table_text(table) -> str:
    """Reference encoder of a table file: json.dumps of {"version": ...,
    "entries": [{"key": [[lam, nu], ...], "poly": ...}, ...]}, sorted by key."""
    return json.dumps({"version": XTABLE_VERSION, "entries": [
        {"key": [list(pair) for pair in key], "poly": reference_json_list(table.entries[key])}
        for key in sorted(table.entries)
    ]})


def Qm(*pairs):
    return mono_from_vars([(qvar(k), e) for k, e in pairs])


def test_z_series_low_coefficients():
    z01 = z_series(0, 1, 6)
    assert z01.coefficient(Qm((1, 1))) == 1
    assert z01.coefficient(Qm((2, 1))) == 1
    assert z01.coefficient(Qm((1, 2))) == Fraction(1, 2)
    z11 = z_series(1, 1, 6)
    assert z11.coefficient(Qm((2, 1))) == Fraction(-1, 2)
    # the K=1 term carries binom(-1,1) = -1; it cancels z_{0,1} so that the
    # first h-series has no degree-1 covers with a double zero
    assert z11.coefficient(Qm((1, 1))) == -1
    h2 = z_series(0, 1, 6) + z11
    assert h2.coefficient(Qm((1, 1))) == 0


def test_z_series_diagnostic_flag():
    # zeroing the negative-K-power terms with d >= 1 changes z_{1,1} at q_2
    flagged = z_series(1, 1, 4, None, drop_negative_k_powers=True)
    assert flagged.coefficient(Qm((2, 1))) == 0
    # and breaks the 1/2 value of the q_2 coefficient of the first h-series
    normal = zpoly_eval(ZPoly.gen(0, 1) + ZPoly.gen(1, 1), 4)
    assert normal.coefficient(Qm((2, 1))) == Fraction(1, 2)
    altered = z_series(0, 1, 4) + flagged
    assert altered.coefficient(Qm((2, 1))) == 1


def test_z_series_n_bound():
    restricted = z_series(0, 1, 4, 1)
    assert restricted.coefficient(Qm((1, 2))) == 0
    assert restricted.coefficient(Qm((2, 1))) == 1


def test_z_series_cache_does_not_take_a_bool_for_an_int():
    z_series(1, 1, 4)
    with pytest.raises(TypeError):
        z_series(True, 1, 4)


def test_zpoly_ring_basics():
    one = ZPoly.constant(1)
    z = ZPoly.gen(0, 1)
    assert not (z - z)
    assert one * z == z
    assert (z + one) * (z - one) == z * z - one
    assert ZPoly({}) == ZPoly() == one * 0
    assert (z * Fraction(1, 2)) * 2 == z


def test_zpoly_eval_examples():
    p = ZPoly.gen(0, 1) + ZPoly.gen(1, 1)
    assert zpoly_eval(p, 4).coefficient(Qm((2, 1))) == Fraction(1, 2)
    assert zpoly_eval(ZPoly.constant(1), 4).term_dict() == {(): Fraction(1)}
    square = zpoly_eval(ZPoly.gen(0, 1) * ZPoly.gen(0, 1), 4)
    assert square.coefficient(Qm((1, 2))) == 1  # (q_1-coefficient of z_{0,1})^2


def _random_terms(rng):
    gens = [(0, 1), (1, 1), (0, 2), (2, 1), (1, 2)]
    return [
        (tuple(sorted(rng.sample(gens, rng.randint(0, 2)))), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 4))
    ]


def _build(cls, terms):
    p = cls()
    for key, coeff in terms:
        p = p + cls({key: coeff})
    return p


def test_zpoly_eval_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(12):
        ta, tb = _random_terms(rng), _random_terms(rng)
        a, b = _build(ZPoly, ta), _build(ZPoly, tb)
        assert zpoly_eval(a * b, 6) == zpoly_eval(a, 6) * zpoly_eval(b, 6)
        assert zpoly_eval(a + b, 6) == zpoly_eval(a, 6) + zpoly_eval(b, 6)
        fa, fb = _build(_FractionZPoly, ta), _build(_FractionZPoly, tb)
        assert (a * b).terms == (fa * fb).terms
        assert (a + b).terms == (fa + fb).terms


def _ring_results(a, b, c):
    """Every operation of the ring on a, b and a scalar c, by name."""
    return {
        "a+b": a + b,
        "a-b": a - b,
        "a*b": a * b,
        "b*a": b * a,
        "a*c": a * c,
        "b*c": b * c,
        "a*3": a * 3,
        "a*0": a * 0,
        "a+c": a + type(a).constant(c),
        "-a": -a,
        "a*a*a": a * a * a,
        "a-a": a - a,
    }


def _random_ring_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ta, tb = _random_terms(rng), _random_terms(rng)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
        yield ta, tb, c


def test_int_zpoly_matches_fraction_reference():
    for ta, tb, c in _random_ring_cases(23, 60):
        got = _ring_results(_build(ZPoly, ta), _build(ZPoly, tb), c)
        want = _ring_results(_build(_FractionZPoly, ta), _build(_FractionZPoly, tb), c)
        for name in want:
            assert got[name].terms == want[name].terms, (name, ta, tb, c)
            assert got[name].pretty() == want[name].pretty(), name
            assert got[name].json_text() == json.dumps(reference_json_list(want[name])), name


def _assert_lowest_terms(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1


def test_zpoly_results_are_in_lowest_terms():
    for ta, tb, c in _random_ring_cases(29, 60):
        a, b = _build(ZPoly, ta), _build(ZPoly, tb)
        _assert_lowest_terms(a)
        for name, p in _ring_results(a, b, c).items():
            _assert_lowest_terms(p)
            _assert_lowest_terms(ZPoly.from_json_list(json.loads(p.json_text())))
    assert ZPoly().den == 1 and (ZPoly.gen(0, 1) * Fraction(1, 3) * 0).den == 1
    for unreduced in ({"gens": [[0, 1]], "coeff": "2/4"}, {"gens": [], "coeff": "6/4"}, {"gens": [[1, 1]], "coeff": "0/5"}):
        with pytest.raises(ValueError, match="lowest terms"):
            ZPoly.from_json_list([unreduced])


def test_equal_values_built_differently_are_equal():
    p = ZPoly.gen(0, 1) * ZPoly.gen(1, 2) * 3 - ZPoly.constant(Fraction(5, 2)) + ZPoly.gen(2, 1)
    q = ZPoly.gen(1, 1) * Fraction(7, 4)
    built = [
        (p * Fraction(1, 6)) * 6,
        p * Fraction(2, 3) * Fraction(3, 2),
        (p + q) - q,
        q + p - q,
        ZPoly.from_json_list(json.loads(p.json_text())),
        ZPoly(dict(p.terms)),
        -(-p),
    ]
    for other in built:
        assert other == p
        assert (other.nums, other.den) == (p.nums, p.den)


def test_equal_polynomials_built_in_different_orders_are_equal():
    a, b, c = ZPoly.gen(3, 4), ZPoly.gen(0, 6), ZPoly.gen(2, 5) * Fraction(1, 3)
    assert a * b * c + b - c * a == b + c * (b * a) - a * c
    assert ZPoly({((0, 6), (3, 4)): 2}) == ZPoly({((3, 4), (0, 6)): 2}) == a * b * 2


def test_a_number_is_no_zpoly():
    # a polynomial meets a number only as a scalar on its right, poly * c
    z, three = ZPoly.gen(0, 1), ZPoly.constant(3)
    assert three != 3 and ZPoly() != 0
    for op in (lambda: z + 1, lambda: 1 + z, lambda: z - Fraction(1, 2), lambda: 2 * z, lambda: hash(three)):
        with pytest.raises(TypeError):
            op()


def test_terms_is_a_read_only_fraction_view():
    p = ZPoly.gen(0, 1) * Fraction(3, 2) + ZPoly.constant(1)
    assert p.terms == {((0, 1),): Fraction(3, 2), (): Fraction(1)}
    assert all(type(c) is Fraction for c in p.terms.values())
    with pytest.raises(TypeError):
        p.terms[()] = Fraction(2)
    with pytest.raises(AttributeError):
        p.terms = {}


@pytest.mark.parametrize("coeff", [0.5, 0.1, True])
def test_zpoly_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        ZPoly({((0, 1),): coeff})
    with pytest.raises(TypeError):
        ZPoly.constant(coeff)
    with pytest.raises(TypeError):
        ZPoly.gen(0, 1) * coeff
    with pytest.raises(TypeError):
        coeff * ZPoly.gen(0, 1)


def _random_triples(rng):
    """Seeded (c, a, b) term lists for combine, with b = None for some."""
    triples = []
    for _ in range(rng.randint(1, 6)):
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-6, 6), rng.randint(1, 7))])
        b = None if rng.random() < 0.3 else _random_terms(rng)
        triples.append((c, _random_terms(rng), b))
    return triples


def _build_triples(cls, triples):
    return [(c, _build(cls, a), None if b is None else _build(cls, b)) for c, a, b in triples]


def test_combine_matches_sum_of_products():
    rng = random.Random(31)
    for _ in range(60):
        raw = _random_triples(rng)
        triples = _build_triples(ZPoly, raw)
        got = ZPoly.combine(iter(triples))
        want = ZPoly()
        for c, a, b in triples:
            want = want + (a if b is None else a * b) * c
        assert got == want, raw
        assert got.terms == _FractionZPoly.combine(_build_triples(_FractionZPoly, raw)).terms, raw
        _assert_lowest_terms(got)


def test_combine_edge_cases():
    z, w = ZPoly.gen(0, 1), ZPoly.gen(1, 2) * Fraction(1, 3)
    assert ZPoly.combine([]) == ZPoly() and ZPoly.combine([]).den == 1
    # zero factors are skipped, whichever of the three is zero
    zeros = [(0, z, w), (Fraction(0), z, None), (2, ZPoly(), w), (3, z, ZPoly()), (1, ZPoly(), None)]
    assert ZPoly.combine(zeros) == ZPoly() and ZPoly.combine(zeros).den == 1
    assert ZPoly.combine(zeros + [(2, z, w)]) == z * w * 2
    # terms that cancel leave lowest terms
    half = ZPoly.combine([(Fraction(1, 2), z, w), (Fraction(-1, 2), w, z), (Fraction(3, 4), z * 2, None)])
    assert half == z * Fraction(3, 2) and half.den == 2
    for c in (0.5, 1.0, True, "1"):
        with pytest.raises(TypeError):
            ZPoly.combine([(c, z, None)])
        with pytest.raises(TypeError):
            ZPoly.combine([(c, ZPoly(), None)])


def _naive_derivation(poly, gen_image):
    """The derivation term by term, one ZPoly per term, as it was summed
    before the fused accumulator."""
    total = ZPoly()
    for key, coeff in poly.terms.items():
        for i, g in enumerate(key):
            rest = key[:i] + key[i + 1 :]
            total = total + ZPoly({rest: coeff}) * gen_image(*g)
    return total


def test_derivations_match_term_by_term_sum():
    table = populate_table(4, 3, 2)
    scaled = ZPoly.gen(2, 1) * ZPoly.gen(0, 3) * Fraction(-5, 6) + ZPoly.constant(Fraction(1, 4))
    for poly in [*table.entries.values(), scaled, ZPoly()]:
        for derivation, gen_image in ((zpoly_weighted_euler, zgen_weighted_euler), (zpoly_euler, zgen_euler)):
            got = derivation(poly)
            assert got == _naive_derivation(poly, gen_image), poly
            _assert_lowest_terms(got)
    # a generator image with a denominator exercises the running denominator
    image = lambda d, r: ZPoly.gen(d + 1, r) * Fraction(1, r + 1) - ZPoly.constant(Fraction(1, 3))
    for poly in (scaled, scaled * scaled, *list(table.entries.values())[:40]):
        assert _zpoly_derivation(poly, image) == _naive_derivation(poly, image)


@pytest.mark.parametrize(
    "entry",
    [
        {"gens": [[0, 1]], "coeff": "1/0"},
        {"gens": [[0, 1]], "coeff": "1/-2"},
        {"gens": [[0, 1]], "coeff": "1.5"},
        {"gens": [[0, 1]], "coeff": "x/3"},
        {"gens": [[0, 1]], "coeff": 3},
        {"gens": [[0, "1"]], "coeff": "1/1"},
        {"gens": [[0, 1, 2]], "coeff": "1/1"},
        {"gens": [[0, 1]]},
    ],
)
def test_from_json_list_rejects_malformed_entries(entry):
    good = {"gens": [[1, 1]], "coeff": "1/2"}
    with pytest.raises(ValueError, match="entry") as excinfo:
        ZPoly.from_json_list([good, entry])
    assert repr(entry) in str(excinfo.value)


def test_zpoly_json_round_trip():
    # den 12 over numerators sharing factors with it: each term's coefficient
    # needs its own gcd, so 6/12 must come out as 1/2 and -4/12 as -1/3
    shared = ZPoly({((0, 1),): Fraction(1, 2), ((1, 1), (0, 2)): Fraction(-1, 3),
                    ((2, 1),) * 3: Fraction(5, 4), (): -7})
    assert shared.den == 12
    assert '"coeff": "1/2"' in shared.json_text() and '"coeff": "-1/3"' in shared.json_text()
    assert ZPoly().json_text() == "[]" and ZPoly.from_json_list([]) == ZPoly()
    product = ZPoly.gen(0, 1) * ZPoly.gen(1, 2) * 3 - ZPoly.constant(Fraction(5, 2))
    for p in (shared, product, ZPoly(), h_poly((5,))):
        assert p.json_text() == json.dumps(reference_json_list(p)), p
        assert ZPoly.from_json_list(json.loads(p.json_text())) == p


def test_keys_sorting_to_one_monomial_are_summed():
    # two spellings of z_{0,1} z_{1,1}: the coefficients add, neither wins
    p = ZPoly({((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): 2})
    assert p == ZPoly.gen(0, 1) * ZPoly.gen(1, 1) * 3
    assert p.pretty() == "3*z_{0,1}*z_{1,1}"
    assert ZPoly({((1, 1), (0, 1)): 1, ((0, 1), (1, 1)): -1}) == ZPoly()


@pytest.mark.parametrize(
    "first, second", [([[0, 1]], [[0, 1]]), ([[0, 1], [1, 1]], [[1, 1], [0, 1]])]
)
def test_from_json_list_rejects_repeated_keys(first, second):
    # json_text writes each monomial once, so a repeat is a corrupt cache
    data = [{"gens": first, "coeff": "1/1"}, {"gens": second, "coeff": "2/1"}]
    with pytest.raises(ValueError, match="repeats the key"):
        ZPoly.from_json_list(data)


def test_zpoly_values_equal_detects_relations():
    # z_{1,2} and z_{0,2}^2/2 are distinct polynomials with equal value
    a = ZPoly.gen(1, 2)
    b = ZPoly.gen(0, 2) * ZPoly.gen(0, 2) * Fraction(1, 2)
    assert a != b
    assert zpoly_values_equal(a, b, 10)
    assert not zpoly_values_equal(a, b + ZPoly.gen(0, 1), 10)


@pytest.mark.parametrize("lam", [(11,), (12,), (6, 6), (3, 3, 3, 3)])
def test_zpoly_values_equal_refuses_a_vacuous_comparison(lam):
    # h_lam starts at q-weight |lam| > 10, so up to 10 it evaluates to 0 as
    # the zero polynomial does; that compares nothing, and used to pass
    h = h_poly(lam)
    with pytest.raises(ValueError, match="vacuous"):
        zpoly_values_equal(h, ZPoly(), 10)
    assert not zpoly_values_equal(h, ZPoly(), sum(lam))
    assert zpoly_values_equal(h, h, 10)


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_zpoly_arithmetic_refuses_a_bool(op):
    # ZPoly.gen(0, 1) - True was -1 + z_{0,1}: the bool became -1 first
    z = ZPoly.gen(0, 1)
    with pytest.raises(TypeError):
        {"+": operator.add, "-": operator.sub, "*": operator.mul}[op](z, True)


def test_eqzred_identities_hold():
    for d in range(4):
        for r in range(1, 4):
            ok, detail = check_eqzred(d, r, 8)
            assert ok, detail


def test_eqzred_detector_catches_perturbation():
    z = z_series(0, 1, 6)
    perturbed = z + z_series(0, 2, 6).scalar_mul(Fraction(1, 7))
    rhs = zpoly_eval(zgen_weighted_euler(0, 1), 6)
    assert perturbed.map_terms(lambda k: ((k, key_weights(k)[0]),)) != rhs


def test_zpoly_derivations_are_derivations():
    a = ZPoly.gen(0, 1)
    b = ZPoly.gen(1, 2)
    for D in (zpoly_weighted_euler, zpoly_euler):
        assert D(a * b) == D(a) * b + a * D(b)
        assert not D(ZPoly.constant(1))


def test_largest_packed_exponent_round_trips():
    # z^127 is the largest power an 8-bit field holds under the width rule
    top = ((1, 1),) * 127
    p = ZPoly({top + ((0, 2),): 3, ((1, 1),): 1})
    assert p.terms == {((0, 2),) + top: 3, ((1, 1),): 1}
    assert ZPoly.from_json_list(json.loads(p.json_text())) == p
    z = ZPoly.gen(1, 1)
    low = ZPoly({((1, 1),) * 63: 1})
    assert ZPoly.combine([(1, low, low * z)]) == ZPoly({top: 1})
    assert zpoly_euler(ZPoly({top: 1})) == ZPoly({top[1:]: 127}) * zgen_euler(1, 1)


def test_exponent_past_the_field_raises():
    over = ((1, 1),) * 128
    with pytest.raises(OverflowError):
        ZPoly({over: 1})
    with pytest.raises(OverflowError):
        ZPoly.from_json_list([{"gens": [list(g) for g in over], "coeff": "1/1"}])
    # 2^W generators would carry a sum-of-units packer into the next field:
    # z_{1,1}^256 must not come back as z_{2,1}
    assert zseries.PACKER.width == 8
    with pytest.raises(OverflowError):
        ZPoly({((1, 1),) * 256: 1})
    half = ZPoly({((1, 1),) * 64: 1})
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        ZPoly.combine([(Fraction(1, 3), ZPoly.gen(0, 1), None), (2, half, half)])
    # each derivation maps z_{0,1} to a term in z_{0,2} (weighted) or z_{1,2}
    for derivation, target in ((zpoly_weighted_euler, (0, 2)), (zpoly_euler, (1, 2))):
        with pytest.raises(OverflowError):
            derivation(ZPoly({((0, 1),) + (target,) * 127: 1}))


_REGISTRY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from doublehurwitz.recursion import h_poly
from doublehurwitz.zseries import ZPoly
gens = [(d, r) for d in range(10) for r in range(1, 8)]
for d, r in (gens if sys.argv[2] == "forward" else gens[::-1]):
    ZPoly.gen(d, r)
p = h_poly((4, 2))
print(p.json_text())
print(p.pretty())
print(sorted(p.terms.items()))
print(sorted(p.nums))
"""


def test_outputs_do_not_depend_on_generator_registration_order():
    src = str(Path(zseries.__file__).parents[1])
    runs = [subprocess.run([sys.executable, "-c", _REGISTRY_PROBE, src, order], capture_output=True, text=True)
            for order in ("forward", "backward")]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    forward, backward = (run.stdout.splitlines() for run in runs)
    assert forward[:3] == backward[:3]
    assert forward[3] != backward[3]  # the packed keys themselves differ


def independent_psi_value(nu, n):
    """String-equation recursion, independent of the closed formula."""
    nu = tuple(nu) + (0,) * (n - len(nu))
    if sum(nu) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    # some entry is zero because sum(nu) = n-3 < n
    i = nu.index(0)
    rest = nu[:i] + nu[i + 1 :]
    total = Fraction(0)
    for j, v in enumerate(rest):
        if v >= 1:
            lowered = rest[:j] + (v - 1,) + rest[j + 1 :]
            total += independent_psi_value(lowered, n - 1)
    return total


@pytest.mark.parametrize("d, r", [(True, 1), (1, True), (1.5, 1), (0, 1.0), ("0", 1)])
def test_gen_rejects_non_ints(d, r):
    # ZPoly.gen(True, 1) was z_{1,1}, and ZPoly.gen(1.5, 1) printed as z_{1.5,1}
    with pytest.raises(TypeError, match="expected an int"):
        ZPoly.gen(d, r)


@pytest.mark.parametrize("d, r", [(-1, 1), (0, 0), (2, -3)])
def test_gen_rejects_out_of_range(d, r):
    with pytest.raises(ValueError, match="d >= 0, r >= 1"):
        ZPoly.gen(d, r)


@pytest.mark.parametrize("key, error", [(((1.5, 1),), TypeError), (((0, 1), (True, 2)), TypeError),
                                        (((0, 0),), ValueError), (((0, 1, 2),), TypeError)])
def test_constructor_checks_every_generator(key, error):
    # the constructor printed z_{1.5,1} and z_{True,2} before
    with pytest.raises(error):
        ZPoly({key: 1})


def test_psi_series_examples():
    assert psi_series(0, 3, 6).coefficient(()) == 1
    for a in range(0, 4):
        s = psi_series(a, 2, a + 6)
        assert s.coefficient(mono_from_vars([(tvar(a, 0), 1)])) == 1
    s02 = psi_series(0, 2, 6)
    assert s02.coefficient(mono_from_vars([(tvar(0, 0), 1), (tvar(0, 1), 1)])) == 1


def test_psi_series_coefficients_are_intersection_numbers():
    # coefficient of a squarefree monomial t_{l1,n1}...t_{lk,nk} equals the
    # intersection number of psi-classes with l+k points, k of them carrying
    # the listed exponents
    for a, ell in [(0, 2), (1, 2), (0, 3), (2, 1), (1, 3)]:
        series = psi_series(a, ell, a + ell + 7)
        for mono, coeff in series.terms():
            if any(e > 1 for _, e in mono):
                continue  # aut factors enter for repeated variables
            nus = [v[2] for v, _ in mono]
            k = len(nus)
            if ell + k < 3 or ell + k > 7:
                continue
            assert coeff == independent_psi_value(nus, ell + k), (a, ell, mono)


def reference_psi_slices(a: int, ell: int, top: int) -> dict:
    """{k: {monomial: Fraction}} for the slices k <= top of Psi_{a,ell}, from
    the multisets of k letters t_{i,j} with sum(i) = a and sum(j) = ell + k - 3,
    each with the coefficient multinomial(sum(j); j) / |Aut|."""
    letters = [tvar(i, j) for i in range(a + 1) for j in range(ell + top - 2)]
    slices = {}
    for k in range(top + 1):
        terms = slices[k] = {}
        for ms in itertools.combinations_with_replacement(letters, k):
            js = [v[2] for v in ms]
            if sum(v[1] for v in ms) != a or sum(js) != ell + k - 3:
                continue
            counts = Counter(ms)
            aut = prod(factorial(m) for m in counts.values())
            multinomial = factorial(sum(js)) // prod(factorial(j) for j in js)
            terms[tuple(sorted(counts.items()))] = Fraction(multinomial, aut)
    return slices


def test_psi_series_equals_the_multiset_reference():
    for a in range(4):
        for ell in range(1, 6):
            slices = reference_psi_slices(a, ell, 4)
            for bound in range(a + ell + 7):
                want = {}
                for k, terms in slices.items():
                    if a + ell + 2 * k - 3 <= bound:
                        want.update(terms)
                assert psi_series(a, ell, bound) == GradedSeries(Truncation(t_weight=bound), want), (a, ell, bound)


@pytest.mark.parametrize("a, ell, bound, error", [
    (-1, 2, 5, ValueError), (0, 0, 5, ValueError), (2, -1, 5, ValueError),
    (0, 3, -1, ValueError), (1, 2, -1, ValueError), (0, 1, -3, ValueError),
    (True, 2, 5, TypeError), (0, True, 5, TypeError), (1.0, 2, 5, TypeError),
])
def test_psi_series_refuses_bad_input(a, ell, bound, error):
    # a bound below 0 was refused only for (0, 3), by its constant slice
    with pytest.raises(error):
        psi_series(a, ell, bound)


def test_psi_string_dilaton_identities():
    for a in range(0, 4):
        for ell in range(1, 5):
            ok, detail = check_psi_string_dilaton(a, ell, a + ell + 8)
            assert ok, detail


def psi_string_naive_residual(a: int, ell: int, t_weight_bound: int) -> GradedSeries:
    """Residual of the over-counting variant that adds the full next series to
    the raised sum: d Psi/d t_{0,0} - Psi_{a,ell+1} - sum t_{i,j+1} d Psi/d t_{i,j}.

    Since the derivative already equals Psi_{a,ell+1}, this residual equals
    minus the raised sum and is nonzero; it is kept as the documented record
    of why the string identity carries its bottom-slice form."""
    psi = psi_series(a, ell, t_weight_bound)
    window = Truncation(t_weight=t_weight_bound - 1)
    lhs = psi.diff(tvar(0, 0)).truncate(window)
    return lhs - psi_series(a, ell + 1, t_weight_bound - 1) - _t_raise(psi).truncate(window)


def test_psi_string_overcounting_variant_fails():
    # adding the full next series on top of the raised sum double-counts; the
    # residual equals minus the raised sum and must be nonzero
    residual = psi_string_naive_residual(0, 2, 10)
    assert not residual.is_zero()
    t01 = mono_from_vars([(tvar(0, 1), 1)])
    assert residual.coefficient(t01) == -1
