"""The packed-monomial format and its width rule, against a dict reference.

A monomial is a {variable: exponent} dict here; the sum of two packed keys
must be the packed key of the exponent-wise sum of their dicts, and unpack
must return the dict's pairs sorted by variable, the canonical monomial.
"""

import random

import pytest

from doublehurwitz.packing import Packer

WIDTHS = (5, 9, 16)
VARIABLES = [f"x{n}" for n in range(8)]


def _random_mono(rng, limit):
    """A random dict monomial whose exponents lie in [0, limit)."""
    chosen = rng.sample(VARIABLES, rng.randint(0, len(VARIABLES)))
    return {var: e for var in chosen if (e := rng.randrange(limit))}


def _packer(width, *variables):
    """A packer with W = width and the variables registered in order."""
    packer = Packer(width)
    for var in variables:
        packer.shift(var)
    return packer


def _mono_sum(a, b):
    out = dict(a)
    for var, e in b.items():
        out[var] = out.get(var, 0) + e
    return {var: e for var, e in out.items() if e}


@pytest.mark.parametrize("width", WIDTHS)
def test_pack_is_linear_injective_and_inverted_by_unpack(width):
    rng = random.Random(width)
    packer = Packer(width)
    limit = packer.limit
    assert limit == 1 << (width - 1)
    seen: dict = {}  # packed sum -> its dict monomial, as a sorted tuple
    for _ in range(2000):
        a, b = _random_mono(rng, limit), _random_mono(rng, limit)
        ka, kb = packer.pack(a.items()), packer.pack(b.items())
        total = _mono_sum(a, b)
        # linear: another split of the same exponents packs to the same sum
        halves = [packer.pack((var, e // 2) for var, e in total.items()),
                  packer.pack((var, e - e // 2) for var, e in total.items())]
        assert ka + kb == sum(halves)
        for key, mono in ((ka, a), (kb, b), (ka + kb, total)):
            assert packer.unpack(key) == tuple(sorted(mono.items()))
        assert seen.setdefault(ka + kb, sorted(total.items())) == sorted(total.items())
    assert packer.pack(()) == 0 and packer.unpack(0) == ()


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_returns_the_canonical_order_and_shares_pairs(width):
    packer = _packer(width, "b", "a")  # field order is not variable order
    high = packer.limit - 1
    key = packer.pack([("a", 1), ("b", high)])
    assert packer.unpack(key) == (("a", 1), ("b", high))
    assert packer.unpack(key) is packer.unpack(key)  # memoised
    other = packer.pack([("a", 2), ("b", high)])
    assert packer.unpack(other)[1] is packer.unpack(key)[1]
    assert packer.unit("a") == 1 << width and packer.unit("c") == 1 << (2 * width)


@pytest.mark.parametrize("width", WIDTHS)
def test_pack_applies_the_width_rule_to_each_exponent(width):
    packer = Packer(width)
    limit = packer.limit
    for e in (1, limit - 1):
        assert dict(packer.unpack(packer.pack([("x", e)]))) == {"x": e}
    for e in (-1, -limit, limit, 2 * limit, 1 << width):
        with pytest.raises(OverflowError):
            packer.pack([("y", 1), ("x", e)])


@pytest.mark.parametrize("width", WIDTHS)
def test_check_is_exact_at_both_ends_of_the_rule(width):
    rng = random.Random(-width)
    packer = Packer(width)
    limit = packer.limit
    for _ in range(150):
        target = rng.choice(VARIABLES)
        for t in (0, limit - 1, limit, 2 * limit - 2):
            # a sum of two keys within the rule: its target field is t, and
            # every other field a random exponent within the rule
            total = _random_mono(rng, limit)
            total[target] = t
            left = {var: e // 2 for var, e in total.items()}
            right = {var: e - e // 2 for var, e in total.items()}
            key = packer.pack(left.items()) + packer.pack(right.items())
            # a field of a sum decodes, and a zero field gives no pair
            assert dict(packer.unpack(key)) == {var: e for var, e in total.items() if e}
            keys = [packer.pack(_random_mono(rng, limit).items()), key]
            rng.shuffle(keys)
            if t < limit:
                packer.check(keys)
            else:
                with pytest.raises(OverflowError, match=f"exponent of {target} in a packed product"):
                    packer.check(keys)
    packer.check([])


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_refuses_a_negative_key(width):
    # every field of an unsigned key is read with a mask, so a negative key,
    # whose bits never run out, would be read forever
    packer = _packer(width, "x", "y")
    for key in (-1, -packer.unit("y"), packer.unit("x") - packer.unit("y")):
        with pytest.raises(OverflowError, match="negative"):
            packer.unpack(key)
    assert key not in packer.decoded


@pytest.mark.parametrize("width", WIDTHS)
def test_fields_reads_field_order_and_pack_takes_a_wider_limit(width):
    packer = _packer(width, "b", "a")  # field order is not variable order
    field = 1 << width  # a stored key may hold any field below this
    key = packer.pack([("a", field - 1), ("b", 2)], field)
    assert packer.fields(key) == [("b", 2), ("a", field - 1)]
    assert packer.unpack(key) == (("a", field - 1), ("b", 2))
    assert packer.fields(0) == []
    assert (key >> packer.shift("a")) & packer.mask == field - 1
    for e in (-1, field):
        with pytest.raises(OverflowError):
            packer.pack([("a", e)], field)
    with pytest.raises(OverflowError):  # the width rule stays the default
        packer.pack([("a", packer.limit)])
