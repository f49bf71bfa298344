"""Brute-force counting of transitive transposition factorizations in S_K.

A factorization of genus g and ramification type (lam, mu) is a list
(sigma, rho, tau_1, ..., tau_m) with sigma of cycle type lam, rho of cycle
type mu, m = len(lam) + len(mu) + 2g - 2 transpositions, product
rho tau_m ... tau_1 sigma = id, and the group generated by all entries
transitive.  This module counts them directly, as paths of transpositions on
permutations: for a fixed sigma it carries forward, one transposition at a
time, the number of paths reaching each state (pi, C), where pi is the running
product tau_j ... tau_1 sigma and C the partition of {0..K-1} into orbits of
<sigma, tau_1, ..., tau_j>.  Paths that meet in the same state are added up
instead of being walked again, but nothing else is assumed: no characters, no
series, no formula for the count.  So the oracle stays independent of the
character-theoretic machinery it is used to validate.  It is still
exponential -- a layer holds up to K! * Bell(K) states -- and guarded by a hard
resource budget.

Two normalizations are exposed:

* ``oracle_count``          -- raw count divided by K! (the literal count);
* ``oracle_count_calibrated`` -- literal count times |Aut lam| * |Aut mu|.

The calibrated value is the one consistent with reading Hurwitz numbers off
the generating function H: the coefficient of beta^m p_lam q_mu in H equals
calibrated / (m! |Aut lam| |Aut mu|) = literal / m!.  On (lam, mu) =
((2), (1,1)) the literal count is 1/2 while the H-coefficient forces 1; that
sentinel fixes the convention once and for all.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial

from .partitions import aut_order, check_partition, check_profile, class_size

MAX_DEGREE = 6
MAX_TRANSPOSITIONS = 6


class ResourceBudgetError(RuntimeError):
    """The requested enumeration exceeds the hard K/m budget."""


def cycle_type(perm: tuple) -> tuple:
    """Cycle type of a permutation given as a tuple (i -> perm[i])."""
    return tuple(sorted(Counter(_orbit_labels(perm)).values(), reverse=True))


def perm_of_cycle_type(lam: tuple) -> tuple:
    """A concrete permutation with cycle type lam on {0, ..., |lam|-1}."""
    perm = []
    start = 0
    for part in lam:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(perm)


def oracle_raw_count(g: int, lam, mu) -> int:
    """Number of transitive factorizations with sigma, rho ranging over the
    full conjugacy classes of types lam and mu (see check_profile)."""
    lam, mu, m = check_profile(g, lam, mu)
    K = sum(lam)
    if K > MAX_DEGREE or m > MAX_TRANSPOSITIONS:
        raise ResourceBudgetError(
            f"oracle budget exceeded: K={K} (max {MAX_DEGREE}), m={m} (max {MAX_TRANSPOSITIONS})"
        )
    sigma = perm_of_cycle_type(lam)
    return class_size(lam) * _count_fixed_sigma(sigma, mu, m)


def _orbit_labels(perm: tuple) -> tuple:
    """Cycles of perm as canonical labels: i's label is the index of its cycle,
    with cycles numbered in order of their smallest element."""
    labels = [-1] * len(perm)
    label = 0
    for i in range(len(perm)):
        if labels[i] < 0:
            j = i
            while labels[j] < 0:
                labels[j] = label
                j = perm[j]
            label += 1
    return tuple(labels)


def _merged_orbits(labels: tuple, transpositions: list) -> list:
    """For each transposition (a, b): the canonical labels after merging the
    orbits of a and b, and the number of orbits left."""
    components = max(labels) + 1
    out = []
    for a, b in transpositions:
        lo, hi = sorted((labels[a], labels[b]))
        if lo == hi:
            out.append((labels, components))
        else:
            # hi's first occurrence follows lo's, so relabelling hi -> lo and
            # closing the gap keeps the first-occurrence order canonical.
            merged = tuple(lo if x == hi else x - (x > hi) for x in labels)
            out.append((merged, components - 1))
    return out


def _count_fixed_sigma(sigma: tuple, mu: tuple, m: int) -> int:
    """Count factorizations with this exact sigma (conjugation makes the count
    constant on the class).

    Layer j maps each state (pi, C) -- running product tau_j ... tau_1 sigma
    and orbit labels of <sigma, tau_1..tau_j> -- to the number of transposition
    paths that reach it.  A state is dropped once its orbits cannot be joined
    by the transpositions left."""
    K = len(sigma)
    transpositions = [(a, b) for a in range(K) for b in range(a + 1, K)]
    labels = _orbit_labels(sigma)
    if max(labels) > m:
        return 0  # sigma's orbits cannot all be joined by m transpositions
    successors: dict = {}  # labels -> _merged_orbits(labels, ...)
    layer = {(sigma, labels): 1}
    for remaining in range(m - 1, -1, -1):
        nxt: dict = {}
        for (pi, labels), paths in layer.items():
            merges = successors.get(labels)
            if merges is None:
                merges = successors[labels] = _merged_orbits(labels, transpositions)
            inv = [0] * K
            for i, v in enumerate(pi):
                inv[v] = i
            for (a, b), (merged, components) in zip(transpositions, merges):
                if components - 1 > remaining:
                    continue  # too few transpositions left to reach transitivity
                p = list(pi)  # (a b) o pi
                p[inv[a]], p[inv[b]] = b, a
                key = (tuple(p), merged)
                nxt[key] = nxt.get(key, 0) + paths
        layer = nxt
    return sum(
        paths
        for (pi, labels), paths in layer.items()
        if max(labels) == 0 and cycle_type(pi) == mu
    )


def oracle_count(g: int, lam, mu) -> Fraction:
    """Literal normalization: transitive factorization count divided by K!."""
    lam = check_partition(lam)
    return Fraction(oracle_raw_count(g, lam, mu), factorial(sum(lam)))


def oracle_count_calibrated(g: int, lam, mu) -> Fraction:
    """Literal count times |Aut lam| |Aut mu| (the generating-function convention)."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    return oracle_count(g, lam, mu) * aut_order(lam) * aut_order(mu)
