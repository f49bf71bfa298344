"""Multisingularity recursion: every generating series x_{lam,nu} as an exact
polynomial in the generators z_{d,r}.

A key is a multiset of pairs (lam_i, nu_i); x for an all-zero lam is the
closed-form initial value, and otherwise one entry (s+1, m) with s >= 0 is
rewritten by the coefficient form of the defining differential equation:

    x_{(s+1,m) u R} = x_{(s,m) u R} + s x_{(s,m+1) u R}
      - sum over labelled sub-multisets A of R, with
            l = m + nu(A) - |A| + 2 >= 1,   a = s + lam(A) >= l:
        multinomial(m + nu(A); m, nu_j for j in A) * (1/l!)
        * sum over assignments of R - A to l ordered blocks B_1..B_l
          sum over compositions a = s_1 + ... + s_l, s_i >= 1:
            prod_i s_i * x_{(s_i, 0) u B_i}.

Enumerating labelled copies of R's entries absorbs all multiset-automorphism
factors; the total lam-weight strictly drops on the right, so the recursion
terminates at the initial conditions.  Results are memoized in an
:class:`XTable` that can be persisted to JSON.  A key determines how its
entry was made (the closed form when every lam_i = 0, else the rewrite of
the key's first, largest entry), so the table stores only key -> polynomial.
:func:`compute_x` checks its key and makes it canonical once, with
:func:`make_xkey`; the recursion below it runs on canonical tuples, which
stay canonical by sorting, so no inner call checks a key again.

The block sum is evaluated as a coefficient extraction rather than term by
term.  With O = R - A written as a vector of multiplicities over its distinct
entries, and c! = prod_i c_i!,

    sum over blocks and compositions = G~_l(O, a) = O! * [u^a y^O] F^l,
    F = sum over t >= 1 and c <= O of  t x_{(t,0) u c} u^t y^c / c!,

and the labelled sub-multisets A are grouped by their type counts k, each
standing for prod_i C(n_i, k_i) labelled choices.  The scaled powers
G~_j(c, t) = c! [u^t y^c] F^j are built one block at a time over
(type-count vector, u-degree) states,

    G~_1(c, t) = t x_{(t,0) u c},
    G~_j(c, t) = sum over head + tail = c, t_head of
                 C(c, head) G~_1(head, t_head) G~_{j-1}(tail, t - t_head),

with C(c, head) = prod_i C(c_i, head_i), so every scalar of a block product
is an int and a correction term divides only by l!.  A single correction
costs O(l a^2 prod_i (O_i + 1)^2) polynomial products instead of
2^|R| * l^|O| * C(a-1, l-1) terms, and the partial powers are shared across
keys through the table.  The reduced engine (:mod:`.reduced`) keeps the
term-by-term sum, so the two engines stay independent.

Each table entry is x_{(s,m) u R} plus one fused sum
(:meth:`.ZPoly.combine`) over (s, x_{(s,m+1) u R}) and the negated
correction triples, and each partial power is one fused sum: its terms are
accumulated once, as int numerators over a running denominator, with the
scalars riding along as coefficients, so no term or partial sum is built as
a ZPoly.  The
correction's bookkeeping per type-count vector (nu(A), |A|, lam(A), the
factorials and the others' types) depends on rest alone and is computed
once per rest; per (s, m) only l, a and the weight are left.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from pathlib import Path
from typing import Optional

from .partitions import check_int, check_partition, multinomial
from .zseries import ZPoly, zpoly_euler, zpoly_weighted_euler

# Stamp covering the layout and the normalization conventions baked into the
# table; bump it whenever those change so stale files are rejected.
XTABLE_VERSION = "xtable-v2"

XKey = tuple  # sorted-descending tuple of (lam_i, nu_i) pairs


def make_xkey(pairs) -> XKey:
    """Canonical key: pairs of ints (TypeError otherwise, a bool is no int
    here) sorted descending by (lam, nu)."""
    key = []
    for pair in pairs:
        a, b = map(check_int, pair)
        if a < 0 or b < 0:
            raise ValueError(f"pair entries must be nonnegative: {pair!r}")
        key.append((a, b))
    if not key:
        raise ValueError("a key needs at least one pair")
    return _canonical(key)


def _canonical(pairs) -> XKey:
    """The pairs as a key, sorted descending by (lam, nu), unchecked."""
    return tuple(sorted(pairs, reverse=True))


def initial_x(nu) -> ZPoly:
    """Closed form for keys with all lam_i = 0:
    multinomial(|nu|; nu) * z_{|nu|, r} with r = len(nu), nu nonempty."""
    nu = tuple(nu)
    if not nu:
        raise ValueError("nu must be nonempty")
    coeff = multinomial(nu)  # first, so a bad entry is reported as one
    return ZPoly.gen(sum(nu), len(nu)) * coeff


class XTable:
    """Memoized recursion state: canonical key -> ZPoly."""

    def __init__(self):
        self.entries: dict = {}
        # entries and partial block products used by _block_product, keyed by
        # type tuple; derived from entries, so never counted or persisted
        self.block_memo: dict = {}

    def __len__(self) -> int:
        return len(self.entries)

    # -- persistence ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        items = [
            {"key": key, "poly": self.entries[key].to_json_list()}
            for key in sorted(self.entries)
        ]
        return {"version": XTABLE_VERSION, "entries": items}

    @staticmethod
    def from_json_dict(data: dict) -> "XTable":
        """The table to_json_dict wrote.  Each entry needs a key of [int, int]
        pairs (a bool is no int here) and a polynomial, and no key may
        repeat; otherwise ValueError names the entry."""
        if not isinstance(data, dict):
            raise ValueError("cache is not a JSON object")
        if data.get("version") != XTABLE_VERSION:
            raise ValueError(
                f"cache version {data.get('version')!r} does not match {XTABLE_VERSION!r}"
            )
        if not isinstance(data.get("entries"), list):
            raise ValueError("cache has no list of entries")
        table = XTable()
        for n, item in enumerate(data["entries"]):
            try:
                key, poly = item["key"], item["poly"]
            except (KeyError, TypeError):
                raise ValueError(f"table entry {n} is malformed: {item!r}") from None
            try:
                key = make_xkey(key)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"table entry {n} has a bad key {item['key']!r}: {exc}") from None
            if key in table.entries:
                raise ValueError(f"table entry {n} repeats the key {item['key']!r}")
            try:
                value = ZPoly.from_json_list(poly)
            except ValueError as exc:
                raise ValueError(f"table entry {n} has a malformed polynomial: {exc}") from None
            table.entries[key] = value
        return table

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict()))
        return path

    @staticmethod
    def load(path) -> "XTable":
        return XTable.from_json_dict(json.loads(Path(path).read_text()))


def _sub_vectors(counts):
    """Every count vector c with 0 <= c <= counts, componentwise."""
    return itertools.product(*(range(n + 1) for n in counts))


@lru_cache(maxsize=None)
def _consumed_types(rest: tuple) -> tuple:
    """The part of the correction's bookkeeping that depends on rest alone.

    Consumed sub-multisets A are enumerated by type counts k <= n (n the
    multiplicities of rest's distinct entries).  One row per k holds nu(A),
    |A|, lam(A), prod_{j in A} nu_j!, the labelled count prod C(n, k), and
    the others' types and counts O = n - k."""
    multiplicity = Counter(rest)
    types, counts = tuple(multiplicity), tuple(multiplicity.values())
    rows = []
    for k in _sub_vectors(counts):
        consumed_nu = [nu for (_, nu), k_i in zip(types, k) for _ in range(k_i)]
        present = [i for i, (n_i, k_i) in enumerate(zip(counts, k)) if n_i > k_i]
        rows.append((
            sum(consumed_nu),
            sum(k),
            sum(lam * k_i for (lam, _), k_i in zip(types, k)),
            prod(factorial(nu) for nu in consumed_nu),
            prod(comb(n_i, k_i) for n_i, k_i in zip(counts, k)),
            tuple(types[i] for i in present),
            tuple(counts[i] - k[i] for i in present),
        ))
    return tuple(rows)


def _correction(s: int, m: int, rest: tuple, table: XTable):
    """The subtracted sum in the rewrite of pivot (s+1, m) over rest, as
    (scalar, polynomial, None) triples for :meth:`.ZPoly.combine`.

    Each consumed type-count vector k of :func:`_consumed_types` stands for
    prod C(n, k) labelled choices of A, with l = m + nu(A) - |A| + 2 blocks
    and a = s + lam(A).  The labelled block sum over the others O = n - k is
    G~_l(O, a), read off :func:`_block_product`, and its weight
    multinomial(m + nu(A); m, nu_A) / l! times the labelled count is
    (m + nu(A))! prod C(n, k) / (m! prod nu_j! l!): an int over l!.
    """
    for nu_a, size_a, lam_a, nu_fact, labelled, others_types, others in _consumed_types(rest):
        ell = m + nu_a - size_a + 2
        if ell < 1:
            continue
        a = s + lam_a
        if a < ell:
            continue
        scalar, poly = _block_product(others_types, others, ell, a, table)
        weight = factorial(m + nu_a) // (factorial(m) * nu_fact) * labelled * scalar
        yield Fraction(weight, factorial(ell)), poly, None


def _block_product(types: tuple, others: tuple, ell: int, a: int, table: XTable) -> tuple:
    """G~_ell(others, a) as (int scalar, polynomial): others! times the
    coefficient of u^a y^others in the ell-th power of
    sum_{t >= 1, c} t x_{(t,0) u c} u^t y^c / c!, for the multiset with the
    given distinct entries and counts.  With G~_1(c, t) = t x_{(t,0) u c} it
    is built as G~_j(c, t) = sum over head + tail = c and t_head of
    C(c, head) G~_1(head, t_head) G~_{j-1}(tail, t - t_head), C(c, head) a
    product of binomials over types, so every scalar is an int; each G~_j
    for j >= 2 is one fused sum with scalar 1.

    Every factor of the term-by-term sum is evaluated, even where its
    partners vanish: all t in 1..a-ell+1 and all c <= others when ell >= 2,
    only (a, others) when ell == 1.  So the keys stored in the table do not
    depend on how the sum is organized.  The partial products G~_j(c, t) are
    memoized on the table per type tuple, for reuse across keys and block
    counts; they are never persisted.
    """
    xs, products = table.block_memo.setdefault(types, ({}, {}))

    def entry(c, t):
        # the table's own polynomial, so the memo holds no copies of entries
        x = xs.get((c, t))
        if x is None:
            group = [pair for pair, c_i in zip(types, c) for _ in range(c_i)]
            x = xs[(c, t)] = _x(_canonical(group + [(t, 0)]), table)
        return x

    def terms(j, c, t):
        # a vanishing head skips its tail unread
        for head in _sub_vectors(c):
            tail = tuple(c_i - h_i for c_i, h_i in zip(c, head))
            choose = prod(comb(c_i, h_i) for c_i, h_i in zip(c, head))
            for t_head in range(1, t - j + 2):
                x = entry(head, t_head)
                if not x:
                    continue
                if j == 2:
                    t_tail = t - t_head
                    yield choose * t_head * t_tail, x, entry(tail, t_tail)
                else:
                    yield choose * t_head, x, product(j - 1, tail, t - t_head)

    def product(j, c, t):
        value = products.get((j, c, t))
        if value is None:
            value = products[(j, c, t)] = ZPoly.combine(terms(j, c, t))
        return value

    if ell == 1:
        return a, entry(others, a)
    if (ell, others, a) not in products:
        # the top level of product() touches exactly these factors; taking
        # them first keeps the recursion out of the nested frames.  A
        # memoized product touched them when it was built.
        for c in _sub_vectors(others):
            for t in range(1, a - ell + 2):
                entry(c, t)
    return 1, product(ell, others, a)


def _rewrite(key: XKey, i: int, table: XTable) -> ZPoly:
    """x for a canonical key by the rewrite of its entry i = (s+1, m), s >= 0:
    x_{(s,m) u R} plus one fused sum of s x_{(s,m+1) u R} and the negated
    correction triples, R the key without entry i."""
    lam, m = key[i]
    s = lam - 1
    rest = key[:i] + key[i + 1 :]
    lower = _x(_canonical(rest + ((s, m),)), table)
    terms = [(s, _x(_canonical(rest + ((s, m + 1),)), table), None)] if s else []
    terms += [(-c, x, y) for c, x, y in _correction(s, m, rest, table)]
    return lower + ZPoly.combine(terms)


def _x(key: XKey, table: XTable) -> ZPoly:
    """x for a canonical key, memoized in the table: the closed form when
    every lam_i = 0, else the rewrite of the first, largest entry.  The
    recursion runs here on canonical keys, which compute_x checked once."""
    value = table.entries.get(key)
    if value is None:
        if key[0][0]:
            value = _rewrite(key, 0, table)
        else:
            value = initial_x(nu for _, nu in key)
        table.entries[key] = value
    return value


def compute_x(key, table: Optional[XTable] = None, pivot_index: Optional[int] = None) -> ZPoly:
    """The polynomial x for a key, memoized in the given table.

    The key is checked and made canonical by :func:`make_xkey` here, once;
    the recursion below runs on canonical keys.  ``pivot_index`` forces
    which entry of the canonical key gets rewritten: it must satisfy
    0 <= pivot_index < len(key) (ValueError otherwise) and the entry must
    have lam >= 1.  By default the largest (lam, nu) entry is used.  Any
    valid pivot yields the same value as a q-series, which is checked by
    the property suites; a forced rewrite is not stored in the table.
    """
    key = make_xkey(key)
    if pivot_index is not None:
        if not 0 <= pivot_index < len(key):
            raise ValueError(f"pivot index {pivot_index} is outside 0..{len(key) - 1} for {key}")
        if key[pivot_index][0] < 1:
            raise ValueError(f"pivot {key[pivot_index]} must have lam >= 1")
    if table is None:
        table = XTable()
    if pivot_index is None:
        return _x(key, table)
    return _rewrite(key, pivot_index, table)


def h_poly(lam, table: Optional[XTable] = None) -> ZPoly:
    """h_lam as a polynomial in the generators: the key with nu = 0."""
    lam = check_partition(lam)
    if not lam:
        raise ValueError("lam must be nonempty")
    return compute_x([(part, 0) for part in lam], table)


def keys_up_to(max_lam_weight: int, max_r: int, max_nu_weight: int) -> list:
    """All canonical keys with sum(lam) <= max_lam_weight, r <= max_r,
    sum(nu) <= max_nu_weight, in deterministic order."""
    if max_r < 1 or max_lam_weight < 0 or max_nu_weight < 0:
        raise ValueError("need max_r >= 1 and nonnegative lambda and nu weights")
    pairs = [
        (a, b)
        for a in range(max_lam_weight + 1)
        for b in range(max_nu_weight + 1)
    ]
    seen = set()
    for r in range(1, max_r + 1):
        for combo in itertools.combinations_with_replacement(pairs, r):
            if sum(p[0] for p in combo) > max_lam_weight:
                continue
            if sum(p[1] for p in combo) > max_nu_weight:
                continue
            seen.add(make_xkey(combo))
    return sorted(seen)


def populate_table(max_lam_weight: int, max_r: int, max_nu_weight: int) -> XTable:
    """A new table holding every key in the given ranges."""
    table = XTable()
    for key in keys_up_to(max_lam_weight, max_r, max_nu_weight):
        compute_x(key, table)
    return table


# ---------------------------------------------------------------------------
# String and dilaton identities on the table entries
# ---------------------------------------------------------------------------


def string_identity_sides(rest: XKey, table: Optional[XTable] = None):
    """Both sides of the string equation read at the coefficient of rest.

    Appending a point with (lam, nu) = (0, 0) satisfies

        x_{(0,0) u R} = sum over entries (i, e) of R with e >= 1 of
                        x_{(R with that entry lowered to (i, e-1))}
                        + (sum_k k q_k d/dq_k) x_R,

    where the q-operator acts on polynomials in the generators through the
    Euler identities.  Returned as (lhs, rhs) ZPolys; they agree as q-series
    but not necessarily in polynomial form.
    """
    rest = make_xkey(rest)
    lhs = compute_x(rest + ((0, 0),), table)
    rhs = zpoly_weighted_euler(compute_x(rest, table))
    for i, (a, b) in enumerate(rest):
        if b >= 1:
            lowered = rest[:i] + ((a, b - 1),) + rest[i + 1 :]
            rhs = rhs + compute_x(lowered, table)
    return lhs, rhs


def dilaton_identity_sides(rest: XKey, table: Optional[XTable] = None):
    """Both sides of the dilaton equation at the coefficient of rest:

        x_{(0,1) u R} = (r - 2) x_R + (sum_k q_k d/dq_k) x_R,

    the r coming from the Euler operator in the t-variables and the -2 from
    the equation itself."""
    rest = make_xkey(rest)
    lhs = compute_x(rest + ((0, 1),), table)
    x_rest = compute_x(rest, table)
    rhs = zpoly_euler(x_rest) + x_rest * (len(rest) - 2)
    return lhs, rhs
