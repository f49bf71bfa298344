"""Property test: the cut-and-join evolution, the character formula and the
brute-force oracle give the same literal Hurwitz number on drawn profiles.

Genus 0 or 1, degree K <= 6 and m = len(lam) + len(mu) + 2g - 2 <= 6 simple
branch points, where the oracle is still cheap.  Derandomized, so every run
draws the same examples."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from doublehurwitz.cutjoin import hurwitz_number_by_series  # noqa: E402
from doublehurwitz.oracle import oracle_count  # noqa: E402
from doublehurwitz.partitions import partitions_of  # noqa: E402

MAX_K = 6
MAX_M = 6


@st.composite
def profiles(draw):
    """(g, lam, mu) with g <= 1, |lam| = |mu| <= MAX_K and m <= MAX_M."""
    g = draw(st.integers(0, 1))
    K = draw(st.integers(1, MAX_K))
    lam = draw(st.sampled_from([lam for lam in partitions_of(K) if len(lam) + 2 * g <= MAX_M + 1]))
    mu = draw(st.sampled_from(
        [mu for mu in partitions_of(K) if len(lam) + len(mu) + 2 * g - 2 <= MAX_M]
    ))
    return g, lam, mu


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(profiles())
def test_three_methods_agree_on_drawn_profiles(profile):
    g, lam, mu = profile
    by_oracle = oracle_count(g, lam, mu)
    assert hurwitz_number_by_series(g, lam, mu, "cutjoin") == by_oracle
    assert hurwitz_number_by_series(g, lam, mu, "frobenius") == by_oracle
