from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from doublehurwitz.exact import ratio
from doublehurwitz.partitions import (
    aut_order,
    check_partition,
    check_profile,
    class_size,
    compositions,
    gen_binomial,
    multinomial,
    partitions_of,
    zee,
)


def brute_force_partitions(n):
    """Independent enumeration: weakly decreasing positive tuples summing to n."""
    found = set()
    for length in range(n + 1):
        for tup in product(range(1, n + 1), repeat=length):
            if sum(tup) == n and all(tup[i] >= tup[i + 1] for i in range(length - 1)):
                found.add(tup)
    if n == 0:
        found.add(())
    return found


def test_partitions_of_trivial_cases():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_against_brute_force():
    for n in range(7):
        got = partitions_of(n)
        assert set(got) == brute_force_partitions(n)
        assert len(set(got)) == len(got)
    assert len(partitions_of(5)) == 7


def test_partitions_of_reverse_lex_order():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # reverse lexicographic: each partition is lexicographically after the next
    for n in range(2, 9):
        parts = partitions_of(n)
        for a, b in zip(parts, parts[1:]):
            assert a > b


def test_partitions_of_max_part():
    assert partitions_of(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(7):
        for mp in range(1, n + 1):
            assert set(partitions_of(n, mp)) == {
                p for p in partitions_of(n) if all(x <= mp for x in p)
            }


def test_check_partition_sorts_and_validates():
    assert check_partition([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        check_partition([2, 0])


@pytest.mark.parametrize("parts", [("3",), (True,), (2.5,), (3, 1.0), (None,)])
def test_check_partition_rejects_non_ints(parts):
    with pytest.raises(TypeError, match="expected an int"):
        check_partition(parts)


def test_aut_order():
    assert aut_order((4, 3, 3, 1, 1, 1)) == 12
    assert aut_order((7,)) == 1
    assert aut_order((1, 1, 1)) == 6
    assert aut_order(()) == 1


def test_class_size_examples():
    assert class_size((1, 1)) == 1
    assert class_size((2,)) == 1
    assert class_size((2, 1)) == 3
    with pytest.raises(ValueError):
        class_size(())


def test_class_sizes_sum_to_group_order():
    for K in range(1, 9):
        assert sum(class_size(lam) for lam in partitions_of(K)) == factorial(K)


def test_zee_is_group_order_over_class_size():
    for K in range(1, 9):
        for lam in partitions_of(K):
            assert zee(lam) == factorial(K) // class_size(lam)


def test_gen_binomial_examples():
    assert gen_binomial(-1, 0) == 1
    assert gen_binomial(-1, 2) == 1
    assert gen_binomial(3, 2) == 3
    assert gen_binomial(-1, 1) == -1
    assert gen_binomial(2, 5) == 0


def test_gen_binomial_matches_comb_for_standard_range():
    for a in range(0, 9):
        for d in range(0, 9):
            assert gen_binomial(a, d) == comb(a, d)


def test_multinomial_examples():
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1)) == 3
    assert multinomial(()) == 1


@pytest.mark.parametrize("nu", [(1.9, 1.2), (2, True), ("1",)])
def test_multinomial_rejects_non_ints(nu):
    # int() would truncate (1.9, 1.2) to (1, 1) and answer 2
    with pytest.raises(TypeError, match="expected an int"):
        multinomial(nu)


def test_check_profile():
    assert check_profile(1, [1, 3], (2, 2)) == ((3, 1), (2, 2), 4)
    assert check_profile(0, (1,), (1,)) == ((1,), (1,), 0)
    for g in (True, 0.0, "0"):
        with pytest.raises(TypeError, match="expected an int"):
            check_profile(g, (2,), (1, 1))
    for lam, mu in (((2,), (3,)), ((), ()), ((2,), ())):
        with pytest.raises(ValueError, match="partition the same positive integer"):
            check_profile(0, lam, mu)
    with pytest.raises(ValueError, match="genus must be >= 0"):
        check_profile(-1, (3,), (1, 1, 1))  # m = 0, but no genus is negative


def test_compositions():
    assert list(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 3)) == []
    # number of compositions of n into k positive parts is C(n-1, k-1)
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert len(list(compositions(n, k))) == comb(n - 1, k - 1)


def test_fraction_round_trip():
    for f in (Fraction(1, 2), Fraction(-5, 3), Fraction(7)):
        assert Fraction(ratio(f.numerator, f.denominator)) == f
    assert ratio(7, 1) == "7/1"
