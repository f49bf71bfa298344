import io
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial

import pytest

from doublehurwitz import cli, oracle
from doublehurwitz.exact import ratio
from doublehurwitz.oracle import (
    ResourceBudgetError,
    _count_fixed_sigma,
    cycle_type,
    oracle_count,
    oracle_count_calibrated,
    oracle_raw_count,
    perm_of_cycle_type,
)
from doublehurwitz.partitions import class_size, partitions_of


def _dfs_count_fixed_sigma(sigma: tuple, mu, m: int) -> int:
    """Reference count: depth-first walk over all 15^m transposition paths
    (the oracle's previous implementation), with the same transitivity prune.

    mu is compared as ``cycle_type(pi) == mu`` at each transitive leaf, so a
    ``_CycleTypeTally`` in its place collects the counts for every mu at once.
    """
    K = len(sigma)
    transpositions = [(a, b) for a in range(K) for b in range(a + 1, K)]

    # Union-find over the orbits of <sigma, tau_1, ..., tau_j>, with rollback.
    parent = list(range(K))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    comp_count = K
    for i in range(K):
        ra, rb = find(i), find(sigma[i])
        if ra != rb:
            parent[ra] = rb
            comp_count -= 1

    pi = list(sigma)  # running product tau_j ... tau_1 sigma
    pi_inv = [0] * K
    for i, v in enumerate(pi):
        pi_inv[v] = i

    count = 0

    def leaf_ok() -> bool:
        return comp_count == 1 and cycle_type(tuple(pi)) == mu

    def dfs(remaining: int):
        nonlocal comp_count, count
        if remaining == 0:
            if leaf_ok():
                count += 1
            return
        if comp_count - 1 > remaining:
            return  # too few transpositions left to reach transitivity
        for a, b in transpositions:
            ia, ib = pi_inv[a], pi_inv[b]
            pi[ia], pi[ib] = b, a
            pi_inv[a], pi_inv[b] = ib, ia
            ra, rb = find(a), find(b)
            merged = ra != rb
            if merged:
                parent[ra] = rb
                comp_count -= 1
            dfs(remaining - 1)
            if merged:
                parent[ra] = ra
                comp_count += 1
            pi[ia], pi[ib] = a, b
            pi_inv[a], pi_inv[b] = ia, ib

    dfs(m)
    return count


class _CycleTypeTally:
    """Stands in for mu in _dfs_count_fixed_sigma: equal to nothing, it
    records the cycle type of every transitive leaf instead."""

    __hash__ = None

    def __init__(self):
        self.counts = Counter()

    def __eq__(self, other):
        self.counts[other] += 1
        return False


def dfs_counts_by_mu(sigma: tuple, m: int) -> Counter:
    """_dfs_count_fixed_sigma(sigma, mu, m) for every mu, from one walk."""
    tally = _CycleTypeTally()
    assert _dfs_count_fixed_sigma(sigma, tally, m) == 0
    return tally.counts


def budget_cases(max_K: int, max_m: int):
    """Every (g, lam, mu, m) with |lam| = |mu| <= max_K and 0 <= m <= max_m."""
    for K in range(1, max_K + 1):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                base = len(lam) + len(mu) - 2
                for m in range(max(base, 0), max_m + 1):
                    if (m - base) % 2 == 0:
                        yield (m - base) // 2, lam, mu, m


def naive_raw_count(g, lam, mu):
    """Fully independent enumeration: iterate every (sigma, rho, tau_1..tau_m)
    over the whole symmetric group, check the defining conditions directly."""
    K = sum(lam)
    m = len(lam) + len(mu) + 2 * g - 2
    perms = list(permutations(range(K)))
    transpositions = []
    for p in perms:
        if cycle_type(p) == tuple(sorted([2] + [1] * (K - 2), reverse=True)):
            transpositions.append(p)

    def compose(a, b):  # a after b
        return tuple(a[b[i]] for i in range(K))

    def transitive(gens):
        reach = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for gp in gens:
                y = gp[x]
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        return len(reach) == K

    count = 0
    for sigma in perms:
        if cycle_type(sigma) != lam:
            continue
        for taus in product(transpositions, repeat=m):
            prod_perm = sigma
            for t in taus:
                prod_perm = compose(t, prod_perm)
            # rho is forced: rho * tau_m ... tau_1 sigma = id
            rho = tuple(sorted(range(K), key=lambda i: prod_perm[i]))
            if cycle_type(rho) != mu:
                continue
            if transitive((sigma, rho) + taus):
                count += 1
    return count


def test_perm_of_cycle_type():
    assert cycle_type(perm_of_cycle_type((3, 2, 1))) == (3, 2, 1)
    assert perm_of_cycle_type((2,)) == (1, 0)


def test_oracle_trivial_identity_cover():
    assert oracle_count(0, (1,), (1,)) == 1


def test_oracle_degree_two():
    assert oracle_count(0, (2,), (2,)) == Fraction(1, 2)
    assert oracle_count(0, (2,), (1, 1)) == Fraction(1, 2)


def test_oracle_matches_naive_enumeration():
    for K in range(1, 4):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                for g in range(0, 2):
                    m = len(lam) + len(mu) + 2 * g - 2
                    if m < 0 or m > 3:
                        continue
                    assert oracle_raw_count(g, lam, mu) == naive_raw_count(g, lam, mu), (
                        g,
                        lam,
                        mu,
                    )


def test_oracle_symmetry():
    for K in range(1, 5):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                for g in (0, 1):
                    m = len(lam) + len(mu) + 2 * g - 2
                    if m < 0 or m > 4:
                        continue
                    assert oracle_count(g, lam, mu) == oracle_count(g, mu, lam)


def test_calibrated_sentinel():
    # the conventions anchor: literal 1/2 on ((2),(1,1)), calibrated 1
    assert oracle_count(0, (2,), (1, 1)) == Fraction(1, 2)
    assert oracle_count_calibrated(0, (2,), (1, 1)) == 1
    assert oracle_count_calibrated(0, (1, 1), (2,)) == 1


def test_known_one_part_values():
    # polynomial covers: h with lam = mu = (K) and m = 0 counts z -> z^K once
    for K in range(1, 6):
        assert oracle_count(0, (K,), (K,)) == Fraction(1, K)


def test_budget_errors():
    with pytest.raises(ResourceBudgetError):
        oracle_raw_count(0, (7,), (7,))
    with pytest.raises(ResourceBudgetError):
        oracle_raw_count(3, (2, 1), (3,))  # m = 9


def test_bad_inputs():
    with pytest.raises(ValueError):
        oracle_count(0, (2,), (3,))
    with pytest.raises(ValueError):
        oracle_count(-1, (1,), (1,))  # m = -2 < 0
    with pytest.raises(TypeError):  # True would be counted as genus 1
        oracle_count(True, (2,), (1, 1))


def test_layer_count_matches_dfs_reference():
    # every (lam, mu, g) with K <= 5 and m <= 5: one DFS walk per (lam, m)
    walks = {}
    checked = 0
    for g, lam, mu, m in budget_cases(5, 5):
        if (lam, m) not in walks:
            walks[lam, m] = dfs_counts_by_mu(perm_of_cycle_type(lam), m)
        assert _count_fixed_sigma(perm_of_cycle_type(lam), mu, m) == walks[lam, m][mu], (
            g, lam, mu,
        )
        checked += 1
    assert checked == 149
    # one K = 6, m = 5 pair, where every transposition must join two orbits
    sigma, mu = perm_of_cycle_type((1,) * 6), (6,)
    assert _count_fixed_sigma(sigma, mu, 5) == _dfs_count_fixed_sigma(sigma, mu, 5) == 155520


def test_layer_count_benchmark_case():
    # the K = 6, m = 5 oracle job of the benchmark, pinned to the DFS value
    assert _count_fixed_sigma(perm_of_cycle_type((3, 1, 1, 1)), (4, 1, 1), 5) == 77760


def test_cli_oracle_counts_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return oracle_raw_count(*args)

    # both bindings, so a second count through oracle_count is seen too
    monkeypatch.setattr(cli, "oracle_raw_count", counting)
    monkeypatch.setattr(oracle, "oracle_raw_count", counting)
    lam, mu = (3, 1, 1), (2, 2, 1)
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["oracle", "--genus", "0", "--lambda", "3,1,1", "--mu", "2,2,1"], out, err) == 0
    assert len(calls) == 1
    raw = class_size(lam) * _dfs_count_fixed_sigma(perm_of_cycle_type(lam), mu, 4)
    assert out.getvalue() == f"{ratio(raw, factorial(5))} {raw}\n"
    assert err.getvalue() == ""


def test_budget_raises_before_counting(monkeypatch):
    def forbidden(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, "_count_fixed_sigma", forbidden)
    with pytest.raises(ResourceBudgetError):
        oracle_raw_count(0, (7,), (7,))
    with pytest.raises(ResourceBudgetError):
        oracle_raw_count(0, (1,) * 5, (1,) * 5)  # m = 8
    with pytest.raises(AssertionError):
        oracle_raw_count(0, (2,), (1, 1))
