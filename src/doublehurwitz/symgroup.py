"""Symmetric group characters, Schur polynomials in power sums, and the
cut-and-join eigenvalues.

Characters are computed by the Murnaghan-Nakayama rule on first-column hook
lengths (beta-sets): removing a border strip of size s from lambda is the same
as replacing some beta-number b by b - s, with sign (-1)^(number of
beta-numbers jumped over).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul
from pathlib import Path
from typing import Optional

from .partitions import check_int, check_partition, partitions_of, zee
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


# Stamp of the JSON cache layout; a cached table without it is rebuilt.
CHARTABLE_VERSION = "chartable-v1"


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

    def check_orthogonality(self) -> bool:
        """Row orthogonality, in integers:
        sum_mu chi^lam_mu chi^rho_mu K!/z_mu = K! delta_{lam rho}.

        For the square table X this reads X D X^T = K! I with D the diagonal
        of class sizes, so X^{-1} = D X^T / K! and X^T X = K! D^{-1}: column
        orthogonality, sum_lam chi^lam_mu chi^lam_nu = z_mu delta_{mu nu},
        follows and needs no second check."""
        parts = partitions_of(self.K)
        rows = [[self.values[(lam, mu)] for mu in parts] for lam in parts]
        order = factorial(self.K)
        sizes = [order // zee(mu) for mu in parts]
        for i, row in enumerate(rows):
            weighted = list(map(mul, row, sizes))
            for j in range(i, len(rows)):
                if sum(map(mul, weighted, rows[j])) != (order if i == j else 0):
                    return False
        return True

    # -- JSON cache (keyed by K) -------------------------------------------

    def to_json_dict(self) -> dict:
        entries = [
            {"lam": list(lam), "mu": list(mu), "chi": v}
            for (lam, mu), v in sorted(self.values.items())
        ]
        return {"version": CHARTABLE_VERSION, "K": self.K, "values": entries}

    @staticmethod
    def from_json_dict(data: dict) -> "CharTable":
        """The table to_json_dict wrote; a K, part or value that is not an
        int (a string, a float such as 4.0, or a bool) raises TypeError."""
        values = {
            (tuple(map(check_int, e["lam"])), tuple(map(check_int, e["mu"]))): check_int(e["chi"])
            for e in data["values"]
        }
        return CharTable(check_int(data["K"]), values)

    @staticmethod
    def cache_path(cache_dir, K: int) -> Path:
        return Path(cache_dir) / f"chartable_K{K}.json"

    def save(self, cache_dir) -> Path:
        """Write the table to its cache file through a temporary file and
        os.replace, so no reader sees a partly written table."""
        path = CharTable.cache_path(cache_dir, self.K)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(self.to_json_dict(), indent=None, sort_keys=True))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @staticmethod
    def load_valid(path, K: int) -> Optional["CharTable"]:
        """The table cached at path, or None unless it parses, carries the
        current version stamp, is for degree K, holds only ints (see
        from_json_dict) and exactly one value per (lam, mu) with lam, mu
        partitions of K, passes check_orthogonality, and each row has a
        positive dimension d = chi^lam_{1^K} and the central character of a
        transposition t = (2, 1^{K-2}): chi^lam_t K(K-1)/2 = central_weight(lam) d.

        A single wrong entry always fails orthogonality (it changes its
        column's norm by a nonzero integer).  Orthogonality cannot see a
        row whose signs are all flipped, which the dimension check catches,
        nor rows swapped between partitions; the transposition check
        confines such swaps to rows of equal central weight, which leaves
        the character formula for e^H unchanged."""
        try:
            data = json.loads(Path(path).read_text())
            if data.get("version") != CHARTABLE_VERSION or data.get("K") != K:
                return None
            table = CharTable.from_json_dict(data)
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None
        parts = partitions_of(K)
        expected = {(lam, mu) for lam in parts for mu in parts}
        if len(data["values"]) != len(expected) or table.values.keys() != expected:
            return None
        if not table.check_orthogonality():
            return None
        ones, t = (1,) * K, (2,) + (1,) * (K - 2)
        for lam in parts:
            dim = table.values[(lam, ones)]
            if dim <= 0:
                return None
            if K > 1 and table.values[(lam, t)] * K * (K - 1) != 2 * central_weight(lam) * dim:
                return None
        return table

    @staticmethod
    def load_or_build(cache_dir, K: int) -> "CharTable":
        """The cached table for degree K if it is valid (see load_valid);
        otherwise a freshly built one, which overwrites the cache file."""
        table = CharTable.load_valid(CharTable.cache_path(cache_dir, K), K)
        if table is None:
            table = CharTable.build(K)
            table.save(cache_dir)
        return table


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
