"""Symmetric group characters, Schur polynomials in power sums, and the
cut-and-join eigenvalues.

Characters are computed by the Murnaghan-Nakayama rule on first-column hook
lengths (beta-sets): removing a border strip of size s from lambda is the same
as replacing some beta-number b by b - s, with sign (-1)^(number of
beta-numbers jumped over).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import check_partition, partitions_of, zee
from .series import GradedSeries, Truncation, partition_mono, pvar


@lru_cache(maxsize=None)
def mn_character(lam: tuple, mu: tuple) -> int:
    """Irreducible character chi^lam_mu of the symmetric group S_{|lam|}.

    Both arguments are partitions of the same integer; raises ValueError
    otherwise.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|lam| = {sum(lam)} differs from |mu| = {sum(mu)}")
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _mn(lam: tuple, mu: tuple) -> int:
    if not mu:
        return 1  # lam is empty too (sizes agree)
    strip = mu[0]
    rest = mu[1:]
    ell = len(lam)
    betas = [lam[i] + ell - 1 - i for i in range(ell)]  # strictly decreasing
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        jumped = sum(1 for c in betas if nb < c < b)
        new = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (ell - 1 - j) for j, v in enumerate(new))
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** jumped * _mn(new_lam, rest)
    return total


class CharTable:
    """All character values chi^lam_mu for partitions of a fixed K."""

    def __init__(self, K: int, values: dict):
        self.K = K
        self.values = values  # (lam, mu) -> int

    @staticmethod
    def build(K: int) -> "CharTable":
        parts = partitions_of(K)
        values = {(lam, mu): mn_character(lam, mu) for lam in parts for mu in parts}
        return CharTable(K, values)

    @staticmethod
    def load_or_build(cache_dir, K: int) -> "CharTable":
        """CharTable.build(K); cache_dir is ignored.  A shim that keeps the
        name the benchmark's tracer binds: nothing in the package calls it,
        and the benchmark-owned half of ROADMAP item 5 deletes it together
        with that binding."""
        return CharTable.build(K)


def schur_in_power_sums(lam: tuple, trunc: Truncation) -> GradedSeries:
    """Schur polynomial s_lam expanded in power sums p:
    s_lam = sum over mu of chi^lam_mu p_mu / z_mu.

    The empty partition gives the constant 1.
    """
    lam = check_partition(lam)
    terms = {
        partition_mono(pvar, mu): Fraction(mn_character(lam, mu), zee(mu))
        for mu in partitions_of(sum(lam))
    }
    return GradedSeries(trunc, terms)  # drops the zero characters


def central_weight(lam: tuple) -> int:
    """Eigenvalue of the cut-and-join operator on s_lam: the content sum
    w(lam) = sum over the boxes (i, j) of the diagram of lam of j - i."""
    lam = check_partition(lam)
    return sum(j - i for i, part in enumerate(lam) for j in range(part))
