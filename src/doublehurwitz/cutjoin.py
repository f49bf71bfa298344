"""Classical computation of the double Hurwitz generating function.

The disconnected generating function is the series e^H in beta, p, q with

    e^H = e^{beta W} e^{sum_n p_n q_n / n},

where W is the cut-and-join operator

    W = (1/2) sum_{i,j >= 1} ( (i+j) p_i p_j d/dp_{i+j}
                               + i j p_{i+j} d^2/(dp_i dp_j) ).

The same series has the character expansion ("Frobenius formula")

    e^H = sum_lam e^{w(lam) beta} s_lam(p) s_lam(q),

with w(lam) the cut-and-join eigenvalue.  The connected function H = log e^H
carries one monomial beta^m p_lam q_mu per factorization type; genus 0 is
the slice m = len(lam) + len(mu) - 2.  hurwitz_mono() is the one writer of
that monomial and _blocks() the one reader of its layout.  evolve() builds H
from its own cut-and-join equation

    dH/dbeta = W(H) + (1/2) sum_{i,j >= 1} i j p_{i+j} dH/dp_i dH/dp_j,

never forming e^H; its J term runs on monomials packed by a
:class:`.packing.Packer` of each call's own.  W keeps the q-part of a term and
J multiplies q-parts, so evolve() can keep only the terms whose q-part divides
one q-monomial: hurwitz_number_by_series() evolves on the divisors of q_mu,
and h_lambda_series() on those of q_lam' q_1^(Q - |lam'|), reading
p_mu q_lam' q_1^e for p_lam' p_1^e q_mu by the p <-> q symmetry of H.
frobenius_eH() sums the character expansion of e^H, and the two are compared
through the generic GradedSeries.log().  hurwitz_number_by_series() reads one
coefficient of H by the character formula without either: _lattice_number()
sums the characters on the divisors of beta^m p_lam q_mu alone and takes the
logarithm there, by the p-weight operator, with its own sub-multiset code.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

from . import exact
from .packing import Packer
from .partitions import (
    aut_order,
    check_partition,
    check_profile,
    partitions_of,
    zee,
)
from .series import BETA_VAR, GradedSeries, P, Truncation, mono_from_vars, pvar, qvar
from .symgroup import CharTable, central_weight, mn_character


def hurwitz_mono(m: int, lam, mu) -> tuple:
    """The canonical monomial beta^m p_lam q_mu: beta first (absent when
    m = 0), then the p-letters, then the q-letters, each by index.  lam and
    mu are any iterables of positive parts, in any order."""
    return ((((BETA_VAR, m),) if m else ())
            + _letters(pvar, tuple(sorted(lam))) + _letters(qvar, tuple(sorted(mu))))


@lru_cache(maxsize=None)
def _letters(var, parts: tuple) -> tuple:
    """The letters var(i)^e of the ascending parts i, by index.  Memoised, so
    the monomials that share a p- or q-block share its pairs too."""
    return tuple((var(i), e) for i, e in Counter(parts).items())


def _blocks(mono: tuple) -> tuple:
    """(beta block, p block, rest) of a canonical monomial, each a slice of
    it: beta sorts before every other letter, and the p-letters sort in one
    run before psi and the q-letters."""
    lo = hi = 1 if mono and mono[0][0] == BETA_VAR else 0
    for var, _ in mono[lo:]:
        if var[0] != P:
            break
        hi += 1
    return mono[:lo], mono[lo:hi], mono[hi:]


@lru_cache(maxsize=None)
def _w_image(pblock: tuple) -> tuple:
    """W applied to one canonical p-monomial, as ((p-monomial, int), ...).

    2W is summed over ordered pairs, then halved exactly: for i != j the
    ordered pairs (i, j) and (j, i) give the same monomial, a cut with i = j
    carries (k/2) e with k even, and a join of p_i with itself carries the
    even factor e (e - 1).  The memo holds one entry per partition met, 97
    up to p-weight 9."""
    out: dict = {}
    for var, e in pblock:
        k = var[1]
        # cut: (i+j) p_i p_j d/dp_{i+j}, ordered pairs (i, j) with i+j = k
        for i in range(1, k):
            new = mono_from_vars(pblock + ((var, -1), (pvar(i), 1), (pvar(k - i), 1)))
            out[new] = out.get(new, 0) + k * e
        # join: i j p_{i+j} d^2/(dp_i dp_j), ordered pairs of variables
        for vj, ej in pblock:
            mult = e * (ej - 1 if vj == var else ej)
            if mult:
                new = mono_from_vars(pblock + ((var, -1), (vj, -1), (pvar(k + vj[1]), 1)))
                out[new] = out.get(new, 0) + k * vj[1] * mult
    return tuple((mono, exact.div(c, 2)) for mono, c in out.items())


def cut_join_apply(series: GradedSeries) -> GradedSeries:
    """Apply the cut-and-join operator W exactly (degree 0 in p-weight).

    W acts on the p-variables alone, the p block of each monomial; their
    image comes from a memo and is spliced back."""

    def image(mono):
        pre, pblock, post = _blocks(mono)
        return [(pre + pimage + post, c) for pimage, c in _w_image(pblock)]

    return series.map_terms(image)


def _packer(q_bound: int) -> Packer:
    """The Packer of one evolve call: p_1..p_Q, q_1..q_Q registered in that
    order, which is canonical monomial order, each field holding exponents
    up to 2^w - 1 >= Q, w = Q.bit_length()."""
    return Packer(q_bound.bit_length() + 1, [pvar(i) for i in range(1, q_bound + 1)]
                  + [qvar(i) for i in range(1, q_bound + 1)])


def _derivatives(packer: Packer, slice_terms: dict) -> list:
    """i d/dp_i of one slice of integer numerators, as
    [(d, [(i, keys, coefficients), ...]), ...] sorted by weight d: for each
    term c p_lam q_mu of p-weight d and each p_i in it with exponent e, the
    packed monomial p_lam q_mu / p_i joins keys and i e c joins
    coefficients."""
    by_weight: dict = {}
    unit = {var: packer.unit(var) for var in packer.variables}
    for mono, c in slice_terms.items():
        key = packer.pack(mono)
        pblock = _blocks(mono)[1]
        d = 0
        for var, e in pblock:
            d += var[1] * e
        by_i = by_weight.setdefault(d, {})
        for var, e in pblock:
            keys, coefficients = by_i.setdefault(var[1], ([], []))
            keys.append(key - unit[var])
            coefficients.append(var[1] * e * c)
    return [(d, [(i, *lists) for i, lists in sorted(by_i.items())])
            for d, by_i in sorted(by_weight.items())]


def _join_into(out: dict, packer: Packer, left: list, right: list, scale: int):
    """out += scale J(A, B), with J(A, B) = sum_{i,j} i j p_{i+j} dA/dp_i dB/dp_j,
    for A and B given by their _derivatives and out keyed by packed monomials.
    Both lists are sorted by weight, so the pair loop stops at the first
    d_l + d_r past the bound."""
    get, top = out.get, len(packer.variables) // 2  # it holds p_1..p_Q, q_1..q_Q
    unit = [packer.unit(var) for var in packer.variables[:top]]  # unit[i - 1]: p_i
    for dl, lbuckets in left:
        for dr, rbuckets in right:
            if dl + dr > top:
                break
            for i, lkeys, lcoefficients in lbuckets:
                for j, rkeys, rcoefficients in rbuckets:
                    add = unit[i + j - 1]
                    for kl, cl in zip(lkeys, lcoefficients):
                        kl += add
                        cl *= scale
                        for kr, cr in zip(rkeys, rcoefficients):
                            k = kl + kr
                            out[k] = get(k, 0) + cl * cr


def evolve(q_weight_bound: int, beta_bound: int, max_genus=None, q_cap=None) -> GradedSeries:
    """The connected series H = log e^H, where e^H = sum_m beta^m W^m(e^{H_0})/m!
    and H_0 = sum_n p_n q_n / n.

    H solves its own cut-and-join equation (Goulden-Jackson, Proc. AMS 125,
    1997): conjugating W by e^H gives dH/dbeta = W(H) + J(H, H) / 2, with
    J(A, B) = sum_{i,j} i j p_{i+j} dA/dp_i dB/dp_j.  With H = sum H_m beta^m
    it is stepped slice by slice,

        (m+1) H_{m+1} = W(H_m) + (1/2) sum_{a+b=m} J(H_a, H_b).

    The slices are integer numerators over one common denominator
    D = Q! B! (Q = q_weight_bound, B = beta_bound): the coefficient of
    beta^m p_lam q_mu in H is a count of transposition tuples (connected
    covers) over |lam|! m!, which divides D.  In numerators the step reads

        2 D (m+1) (D H_{m+1}) = 2 D W(D H_m) + sum_{a+b=m} J(D H_a, D H_b),

    its division is checked to be exact, and H is handed over as these
    numerators over D.  W is cut_join_apply on the tuple form of D H_m.
    J runs on monomials packed by _packer(Q), so the monomial of a product
    term is the sum of two ints and the field of p_{i+j}.  Every slice term
    has p-weight = q-weight = d <= Q, and J pairs two terms only when
    d_l + d_r <= Q, so every exponent of a product is at most Q; each slice's
    J is still checked against the packer's width rule.

    With max_genus = G, only the terms beta^m p_lam q_mu of genus <= G are
    kept, those with len(lam) + len(mu) >= m + 2 - 2G.  The cap is exact, as
    no part of the step lowers the genus: W's cut keeps it, W's join raises it
    by one, and J(H_a, H_b) has genus g_a + g_b.  So the genus <= G terms of
    H_{m+1} depend only on the genus <= G terms of H_0..H_m.  None keeps all.

    With q_cap = c, a partition, only the terms whose q-part divides q_c are
    kept.  The cap is exact as well, as no part of the step enlarges a q-part
    beyond the product of its sources': W acts on the p-letters alone, so each
    term of W(H_m) has the q-part of a term of H_m, and each term of
    J(H_a, H_b) has the product of the q-parts of a term of H_a and a term of
    H_b.  A q-monomial that divides q_c has only divisors of q_c as factors,
    so the terms of H_{m+1} whose q-part divides q_c depend only on those of
    H_0..H_m.  H_0 keeps p_n q_n / n for the n in c, and after each step the
    J terms whose q-part does not divide q_c are dropped; W needs no filter.
    The q-letters hold the top fields of a packed key and no packed field is
    negative, so key >> (the offset of q_1) is its q-part, and the
    divisor test runs once per q-part met.  None keeps all.
    """
    if q_weight_bound < 1 or beta_bound < 0:
        raise ValueError("need q_weight_bound >= 1 and beta_bound >= 0")
    if max_genus is not None and max_genus < 0:
        raise ValueError(f"need max_genus >= 0, not {max_genus}")
    cap = None if q_cap is None else dict(hurwitz_mono(0, (), check_partition(q_cap)))
    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    D = factorial(q_weight_bound) * factorial(beta_bound)
    packer = _packer(q_weight_bound)

    Hs = [{hurwitz_mono(0, (n,), (n,)): exact.div(D, n)
           for n in range(1, q_weight_bound + 1)
           if cap is None or qvar(n) in cap}]  # Hs[m] = D H_m
    qshift = packer.shift(qvar(1))
    divides: dict = {}  # q-part of a packed key, shifted down -> whether it divides q_c

    def kept(key: int) -> bool:
        q = key >> qshift
        ok = divides.get(q)
        if ok is None:
            ok = divides[q] = not any(cap.get(var, 0) < e for var, e in packer.unpack(q << qshift))
        return ok

    derivatives = []  # derivatives[m] = _derivatives of D H_m, for m < B
    for m in range(beta_bound):
        derivatives.append(_derivatives(packer, Hs[m]))
        joined: dict = {}
        for a in range((m + 2) // 2):  # J is symmetric: a < m - a twice, a = m - a once
            _join_into(joined, packer, derivatives[a], derivatives[m - a], 1 if 2 * a == m else 2)
        packer.check(joined)
        acc = {mono: 2 * D * c  # D H_m has den 1, and so has its W image
               for mono, c in cut_join_apply(GradedSeries.from_ints(trunc, Hs[m])).nums.items()}
        for k, c in joined.items():
            if cap is None or kept(k):
                mono = packer.unpack(k)
                acc[mono] = acc.get(mono, 0) + c
        step = 2 * D * (m + 1)
        # genus <= G in slice m + 1 takes >= m + 3 - 2G parts; every term has >= 2
        least_parts = 2 if max_genus is None else m + 3 - 2 * max_genus
        Hs.append({mono: exact.div(c, step) for mono, c in acc.items()
                   if c and (least_parts <= 2 or sum(e for _, e in mono) >= least_parts)})
    del derivatives  # free the packed lists before H is built

    H: dict = {}
    for m in range(beta_bound + 1):
        beta_m = hurwitz_mono(m, (), ())
        for mono, c in Hs[m].items():
            H[beta_m + mono] = c
        Hs[m] = None  # copied: let it go before the next slice grows the dict
    return GradedSeries.from_ints(trunc, H, D)


def frobenius_eH(q_weight_bound: int, beta_bound: int) -> GradedSeries:
    """Character expansion of e^H, truncated to the same bounds as evolve():
    the coefficient of beta^m p_rho q_sigma, for rho and sigma partitions of
    the same k, is

        sum over lam |- k of chi^lam_rho chi^lam_sigma w(lam)^m / (z_rho z_sigma m!),

    with w(lam) = central_weight(lam), the cut-and-join eigenvalue."""
    if q_weight_bound < 1 or beta_bound < 0:
        raise ValueError("need q_weight_bound >= 1 and beta_bound >= 0")
    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    total: dict = {}
    for k in range(q_weight_bound + 1):
        chi = CharTable.build(k).values
        parts = partitions_of(k)
        powers = [[central_weight(lam) ** m for lam in parts] for m in range(beta_bound + 1)]
        for rho in parts:
            for sigma in parts:
                chichi = [chi[(lam, rho)] * chi[(lam, sigma)] for lam in parts]
                z = zee(rho) * zee(sigma)
                for m, wm in enumerate(powers):
                    c = sum(map(mul, chichi, wm))
                    if c:
                        total[hurwitz_mono(m, rho, sigma)] = Fraction(c, z * factorial(m))
    return GradedSeries(trunc, total)


def genus0_part(H: GradedSeries) -> GradedSeries:
    """Keep the monomials beta^m p_lam q_mu with m = len(lam) + len(mu) - 2."""

    def image(mono):
        beta, pblock, rest = _blocks(mono)
        genus0 = sum(e for _, e in beta) == sum(e for _, e in pblock + rest) - 2
        return ((mono, 1),) if genus0 else ()

    return H.map_terms(image)


def h_lambda_series(lams, q_weight_bound: int) -> list:
    """The series h_lam(q), one for each lam in lams, in that order: the
    generating function of genus-0 covers with marked zeros of orders lam,
    any number of extra simple zeros, arbitrary profile over infinity, and
    simple branching elsewhere.

    Its q_mu coefficient is |Aut lam| times that of p_lam q_mu in the genus-0
    series after p_1 -> p_1 + 1: with lam = (lam', 1^a), the sum over e >= a
    of C(e, a) times the coefficient of p_lam' p_1^e q_mu, at the one power
    of beta that genus 0 gives it.  H is symmetric under p <-> q, so that is
    the coefficient of p_mu q_lam' q_1^e, whose q-part divides
    q_lam' q_1^(Q - |lam'|) (Q = q_weight_bound).  One evolve, capped by the
    letter-wise maximum of these q-monomials over lams, serves every lam, and
    the p-block of each term it reads is read back as the q-part q_mu.

    Exact up to q-weight q_weight_bound; independent of the order of each lam.
    """
    lams = [check_partition(lam) for lam in lams]
    if not all(lams):
        raise ValueError("lam must be a nonempty partition")
    if q_weight_bound < 1:
        raise ValueError("need q_weight_bound >= 1")
    cap: Counter = Counter()
    for lam in lams:
        rest = [part for part in lam if part != 1]
        cap |= Counter(rest) + Counter({1: q_weight_bound - sum(rest)})  # + drops q_1^(<= 0)
    H = evolve(q_weight_bound, max(0, 2 * q_weight_bound - 2), max_genus=0, q_cap=cap.elements())
    q1 = qvar(1)
    split: dict = {}  # q-part without q_1 -> [(power of q_1, read-back q_mu, numerator)]
    for mono, n in H.nums.items():
        pblock, qblock = _blocks(mono)[1:]  # q_1 first; every term has q-letters
        e = qblock[0][1] if qblock[0][0] == q1 else 0
        mu = hurwitz_mono(0, (), [var[1] for var, k in pblock for _ in range(k)])
        split.setdefault(qblock[1:] if e else qblock, []).append((e, mu, n))
    trunc, out = Truncation(q_weight=q_weight_bound), []
    for lam in lams:
        ones = lam.count(1)
        aut = aut_order(lam)
        h: dict = {}
        for e, mu, n in split.get(hurwitz_mono(0, (), lam[:len(lam) - ones]), ()):
            if e >= ones:
                h[mu] = h.get(mu, 0) + comb(e, ones) * n * aut
        out.append(GradedSeries.from_ints(trunc, h, H.den))
    return out


def _lattice_number(lam: tuple, mu: tuple, m: int) -> Fraction:
    """m! times the coefficient of beta^m p_lam q_mu in H, read off the
    divisor lattice L of that monomial: the beta^j p_a q_b with j <= m, a and
    b sub-multisets of lam and mu, and |a| = |b| = d.  L is closed under
    division, so H on L depends only on E = e^H on L, where

        E_M = sum over rho |- d of chi^rho_a chi^rho_b w(rho)^j / (z_a z_b j!),

    two columns of the character table of S_d.  The p-weight operator
    sum_i i p_i d/dp_i is a derivation, so d(M) E_M = sum_{M1 M2 = M} d(M1)
    H_{M1} E_{M2}; E_1 = 1 and E vanishes on beta^j alone, j >= 1, so in
    increasing p-weight

        d(M) H_M = d(M) E_M - sum d(M1) H_{M1} E_{M/M1}, 1 <= d(M1) < d(M).

    A sub-multiset is numbered by its multiplicity vector in mixed radix, so
    the cofactor of a divisor is the difference of their numbers.  E_M and
    H_M are counts of factorizations over d! j!, which divides D = |lam|! m!:
    both are kept as int numerators over D, and each division is checked."""
    K = sum(lam)
    D = factorial(K) * factorial(m)
    sides = []  # per side: weight -> [(number, sub-multiset, {weight: proper sub-multisets})]
    for mults in (Counter(lam), Counter(mu)):
        rows = [((), [0])]  # (sub-multiset, the numbers of its sub-multisets), by number
        for part, n in mults.items():
            rows = [(sub + (part,) * k, [(n + 1) * i + l for i in subs for l in range(k + 1)])
                    for sub, subs in rows for k in range(n + 1)]
        side: dict = {}
        for number, (sub, subs) in enumerate(rows):
            by_weight: dict = {}
            for s in subs[1:-1]:  # the first is the empty one, the last sub itself
                by_weight.setdefault(sum(rows[s][0]), []).append(s)
            side.setdefault(sum(sub), []).append((number, sub, by_weight))
        sides.append(side)
    E: dict = {}
    H: dict = {}  # (a, b) -> [D H at beta^j p_a q_b for j = 0..m]
    for d in range(1, K + 1):
        if d not in sides[0] or d not in sides[1]:
            continue  # no monomial of L has p-weight d
        # only the rho with chi^rho_a != 0 for some a of weight d need chi^rho_b
        rhos = [rho for rho in partitions_of(d)
                if any(mn_character(rho, sub) for _, sub, _ in sides[0][d])]
        weights = [central_weight(rho) for rho in rhos]
        powers = [[w ** j for w in weights] for j in range(m + 1)]
        columns = [{a: [mn_character(rho, sub) for rho in rhos] for a, sub, _ in side[d]}
                   for side in sides]
        for a, asub, adivs in sides[0][d]:
            for b, bsub, bdivs in sides[1][d]:
                chichi = list(map(mul, columns[0][a], columns[1][b]))
                z = zee(asub) * zee(bsub)
                e = [exact.div(D * sum(map(mul, chichi, wj)), z * factorial(j))
                     for j, wj in enumerate(powers)]
                acc = [d * D * c for c in e]
                for d1, a1s in adivs.items():
                    for a1 in a1s:
                        for b1 in bdivs.get(d1, ()):
                            e2 = E[a - a1, b - b1]
                            for j1, h in enumerate(H[a1, b1]):
                                if h:
                                    h *= d1
                                    for j2 in range(m + 1 - j1):
                                        acc[j1 + j2] -= h * e2[j2]
                E[a, b] = e
                H[a, b] = [exact.div(c, d * D) for c in acc]
    top = sides[0][K][0][0], sides[1][K][0][0]  # lam and mu, the one sub-multiset of weight K
    return Fraction(H[top][m] * factorial(m), D)


def hurwitz_number_by_series(g: int, lam, mu, method: str) -> Fraction:
    """Literal double Hurwitz number h_{g; lam, mu} read off the generating
    function: H-coefficient of beta^m p_lam q_mu times m!.

    method is "cutjoin" (evolution by W, up to genus g and on the divisors of
    q_mu) or "frobenius" (character formula and its logarithm, both on the
    divisors of beta^m p_lam q_mu alone: see _lattice_number).  The profile is
    validated by check_profile."""
    lam, mu, m = check_profile(g, lam, mu)
    if method == "frobenius":
        return _lattice_number(lam, mu, m)
    if method != "cutjoin":
        raise ValueError(f"unknown method {method!r}")
    H = evolve(sum(lam), m, max_genus=g, q_cap=mu)
    return Fraction(H.nums.get(hurwitz_mono(m, lam, mu), 0) * factorial(m), H.den)
