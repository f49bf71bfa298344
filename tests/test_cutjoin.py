import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from doublehurwitz import cutjoin
from doublehurwitz.cutjoin import (
    _derivatives,
    _join_into,
    _w_moves,
    cut_join_apply,
    evolve,
    frobenius_eH,
    genus0_part,
    h_lambda_series,
    hurwitz_mono,
    hurwitz_number_by_series,
)
from doublehurwitz.exact import div
from doublehurwitz.partitions import aut_order, partitions_of, zee
from doublehurwitz.series import (
    BETA_VAR,
    PACKER,
    GradedSeries,
    Truncation,
    alphabet_mask,
    mono_from_vars,
    pvar,
    qvar,
)
from doublehurwitz.symgroup import central_weight, mn_character, schur_in_power_sums


def _shifted(mono: tuple, deltas: dict) -> tuple:
    """mono with the exponents of deltas' letters shifted, on a dict of its
    own: the reference does not share the package's monomial canonicaliser."""
    exps = dict(mono)
    for var, d in deltas.items():
        exps[var] = exps.get(var, 0) + d
    assert all(e >= 0 for e in exps.values()), (mono, deltas)
    return tuple(sorted((var, e) for var, e in exps.items() if e))


def P(*pairs):
    return mono_from_vars([(pvar(i), e) for i, e in pairs])


def test_cut_and_join_on_monomials():
    tr = Truncation(p_weight=4)
    p1sq = GradedSeries(tr, {P((1, 2)): Fraction(1)})
    assert cut_join_apply(p1sq) == GradedSeries(tr, {P((2, 1)): Fraction(1)})
    p2 = GradedSeries(tr, {P((2, 1)): Fraction(1)})
    assert cut_join_apply(p2) == GradedSeries(tr, {P((1, 2)): Fraction(1)})


def test_cut_and_join_preserves_p_weight():
    tr = Truncation(p_weight=6)
    s = GradedSeries(tr, {P((3, 1), (1, 2)): Fraction(1), P((2, 2)): Fraction(2)})
    for mono, _ in cut_join_apply(s).terms():
        assert sum(v[1] * e for v, e in mono) in (4, 5)


def _loop_cut_join_apply(series: GradedSeries) -> GradedSeries:
    """Reference: W applied monomial by monomial, over ordered pairs with the
    factor 1/2, on the coefficients' own ring (the previous implementation)."""
    half = Fraction(1, 2)
    out: dict = {}
    for mono, coeff in series.items():
        pexps = [(var, e) for var, e in mono if var[0] == "p"]
        for var, e in pexps:
            k = var[1]
            base = coeff * half * k * e
            for i in range(1, k):
                j = k - i
                new = _shifted(mono, {var: -1, pvar(i): +1, pvar(j): +1} if i != j
                               else {var: -1, pvar(i): +2})
                out[new] = out.get(new, 0) + base
        for vi, ei in pexps:
            for vj, ej in pexps:
                i, j = vi[1], vj[1]
                mult = ei * (ej - 1) if vi == vj else ei * ej
                if mult == 0:
                    continue
                deltas = {pvar(i + j): +1}
                if vi == vj:
                    deltas[vi] = -2 + deltas.get(vi, 0)
                else:
                    deltas[vi] = -1
                    deltas[vj] = deltas.get(vj, 0) - 1
                new = _shifted(mono, deltas)
                out[new] = out.get(new, 0) + coeff * half * i * j * mult
    return GradedSeries(series.truncation, out)


def _diagonal_seed(trunc: Truncation, q_weight_bound: int) -> GradedSeries:
    """H at beta = 0: sum_{n <= bound} p_n q_n / n."""
    terms = {
        mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
        for n in range(1, q_weight_bound + 1)
    }
    return GradedSeries(trunc, terms)


def _cauchy_seed(trunc: Truncation, q_weight_bound: int, sign: int) -> GradedSeries:
    """e^{sign H_0} by the Cauchy identity: sum_lam sign^len(lam) p_lam q_lam / z_lam."""
    terms = {}
    for d in range(q_weight_bound + 1):
        for lam in partitions_of(d):
            mono = mono_from_vars([(pvar(i), 1) for i in lam] + [(qvar(i), 1) for i in lam])
            terms[mono] = Fraction(sign ** len(lam), zee(lam))
    return GradedSeries(trunc, terms)


def _fraction_evolve(q_weight_bound: int, beta_bound: int) -> tuple:
    """Reference (e^H, H): the evolution on Fraction coefficients, slice by
    slice (the implementation before the integer one), driven by the
    reference cut-and-join loop and seeded by the generic exp(), which must
    agree with the Cauchy seeds that evolve writes down."""
    trunc = Truncation(
        q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound
    )
    h0 = _diagonal_seed(trunc, q_weight_bound)
    e0 = h0.exp()
    e0_inv = (-h0).exp()
    assert e0 == _cauchy_seed(trunc, q_weight_bound, 1)
    assert e0_inv == _cauchy_seed(trunc, q_weight_bound, -1)

    E = [e0]
    for m in range(1, beta_bound + 1):
        E.append(_loop_cut_join_apply(E[m - 1]).scalar_mul(Fraction(1, m)))

    Hs = [h0]
    for m in range(1, beta_bound + 1):
        acc = E[m]
        for b in range(1, m):
            acc = acc - (Hs[b] * E[m - b]).scalar_mul(Fraction(b, m))
        Hs.append(acc * e0_inv)

    eH = GradedSeries.from_ints(trunc, {})
    H = GradedSeries.from_ints(trunc, {})
    for m in range(beta_bound + 1):
        beta_m = ((BETA_VAR, m),) if m else ()
        eH = eH + GradedSeries(trunc, {mono_from_vars(mono + beta_m): c for mono, c in E[m].items()})
        H = H + GradedSeries(trunc, {mono_from_vars(mono + beta_m): c for mono, c in Hs[m].items()})
    return eH, H


# (7, 4) and (8, 2) sit on the packed field-width boundary: at Q = 7 an
# exponent of 7 fills a 3-bit field, at Q = 8 the field needs 4 bits.
# (1, 3) and (2, 5) test the weight bound of the J products in evolve's step:
# at Q = 1 every product lies past it, and at Q = 2 only the product of two
# weight-1 terms (p_1 q_1 with itself) stays within it.
@pytest.mark.parametrize(
    "bounds", [(1, 0), (3, 0), (1, 3), (2, 5), (4, 4), (6, 6), (5, 8), (7, 4), (8, 2)]
)
def test_integer_evolve_matches_fraction_evolve(bounds):
    H = evolve(*bounds)
    eH_ref, H_ref = _fraction_evolve(*bounds)
    assert H == H_ref
    assert eH_ref.log() == H
    assert all(type(c) is Fraction for _, c in H.items())


@pytest.mark.parametrize("bounds", [(1, 3), (2, 5), (5, 8), (6, 6), (7, 4)])
def test_evolve_solves_connected_cut_and_join(bounds):
    # With H = sum H_m beta^m: H_0 = sum p_n q_n / n and
    # (m+1) H_{m+1} = W(H_m) + (1/2) sum_{a+b=m} sum_{i,j} i j p_{i+j} dH_a/dp_i dH_b/dp_j,
    # rebuilt here from GradedSeries products, with no packing.
    q_bound, beta_bound = bounds
    trunc = Truncation(q_weight=q_bound, p_weight=q_bound)
    slices = [{} for _ in range(beta_bound + 1)]
    for mono, c in evolve(q_bound, beta_bound).items():
        m = dict(mono).get(BETA_VAR, 0)
        slices[m][tuple((v, e) for v, e in mono if v != BETA_VAR)] = c
    slices = [GradedSeries(trunc, terms) for terms in slices]
    assert slices[0] == _diagonal_seed(trunc, q_bound)
    # i dH_m/dp_i, for i <= Q
    derivatives = [{i: s.diff(pvar(i)).scalar_mul(i) for i in range(1, q_bound + 1)}
                   for s in slices]
    half = Fraction(1, 2)
    for m in range(beta_bound):
        rhs = cut_join_apply(slices[m])
        for a in range(m + 1):
            for i, da in derivatives[a].items():
                for j in range(1, q_bound + 1 - i):
                    p_ij = GradedSeries.var(trunc, pvar(i + j))
                    rhs = rhs + (p_ij * da * derivatives[m - a][j]).scalar_mul(half)
        assert slices[m + 1].scalar_mul(m + 1) == rhs, m


@pytest.mark.parametrize("q_bound", [8, 16])
def test_packer_fields_hold_exponent_q(q_bound):
    """J on series.PACKER keys: J(p_i q_1^i, p_j q_1^j) = ij p_Q q_1^Q for
    every i + j = Q, so the q_1-exponent reaches Q, a power of two; the
    product passes the width rule and decodes whole."""
    joined = mono_from_vars([(pvar(q_bound), 1), (qvar(1), q_bound)])
    for mono in (joined, mono_from_vars([(pvar(1), q_bound), (qvar(q_bound), 1)])):
        assert PACKER.unpack(PACKER.pack(mono)) == mono
    for i in range(1, q_bound):
        j = q_bound - i
        slices = [{PACKER.pack(mono_from_vars([(pvar(k), 1), (qvar(1), k)])): 1} for k in (i, j)]
        left, right = (_derivatives(terms, alphabet_mask({"p"})) for terms in slices)
        out: dict = {}
        _join_into(out, left, right, 1, q_bound)
        PACKER.check(out)
        assert {PACKER.unpack(k): c for k, c in out.items()} == {joined: i * j}


def test_evolve_checks_each_slice_against_its_packer(monkeypatch):
    # plant one J product whose q_1 field holds 2^14, the width rule's limit:
    # evolve must refuse it, though the field still decodes
    real = cutjoin._join_into

    def planted(out, *args):
        real(out, *args)
        out[PACKER.unit(qvar(1)) << PACKER.width - 1] = 1

    monkeypatch.setattr(cutjoin, "_join_into", planted)
    with pytest.raises(OverflowError):
        evolve(4, 1)


def test_hurwitz_mono_is_the_canonical_monomial():
    for K in range(1, 6):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                for m in range(5):
                    mono = hurwitz_mono(m, lam, mu)
                    assert mono == mono_from_vars(
                        [(pvar(i), 1) for i in lam] + [(qvar(i), 1) for i in mu]
                        + ([(BETA_VAR, m)] if m else []))
                    assert hurwitz_mono(m, lam[::-1], mu[::-1]) == mono
    assert hurwitz_mono(0, (), ()) == ()


_FIELD_ORDER_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from doublehurwitz.cutjoin import evolve, h_lambda_series, hurwitz_number_by_series
from doublehurwitz.series import BETA_VAR, PACKER, qvar
if sys.argv[2] == "q-first":
    for var in [qvar(k) for k in range(6, 0, -1)] + [BETA_VAR]:
        PACKER.shift(var)
print(sorted(evolve(6, 6).items()))
print(sorted(h_lambda_series([(3, 2, 1)], 9)[0].items()))
print(hurwitz_number_by_series(0, (4, 3, 2, 1), (4, 3, 2, 1), "cutjoin"))
print(PACKER.variables[:7])
"""


def test_evolve_does_not_depend_on_field_order():
    # q_6..q_1 and beta registered before any p-letter: the p- and q-parts
    # of a key are read by masks, whatever the layout
    src = str(Path(cutjoin.__file__).parents[1])
    runs = [subprocess.run([sys.executable, "-c", _FIELD_ORDER_PROBE, src, order],
                           capture_output=True, text=True) for order in ("fresh", "q-first")]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    fresh, q_first = (run.stdout.splitlines() for run in runs)
    assert len(fresh) == len(q_first) == 4
    assert fresh[:3] == q_first[:3]
    assert q_first[3] == repr([qvar(k) for k in range(6, 0, -1)] + [BETA_VAR])
    assert fresh[3] != q_first[3]


def test_cut_join_apply_matches_loop():
    tr = Truncation(q_weight=6, p_weight=6, beta_deg=3)
    b, p, q = BETA_VAR, pvar, qvar
    terms = {
        mono_from_vars([(b, 2), (p(1), 3), (p(3), 1), (q(2), 3)]): Fraction(3, 7),
        mono_from_vars([(p(2), 3), (q(6), 1)]): Fraction(-5, 2),
        mono_from_vars([(b, 1), (p(1), 2), (p(2), 2)]): Fraction(1, 3),
        mono_from_vars([(b, 3), (p(6), 1), (q(1), 1), (q(5), 1)]): Fraction(2),
        mono_from_vars([(p(1), 6)]): Fraction(1, 720),
        mono_from_vars([(q(1), 2), (b, 1)]): Fraction(9),  # no p-block: W kills it
    }
    fractions = GradedSeries(tr, terms)
    assert cut_join_apply(fractions) == _loop_cut_join_apply(fractions)
    integers = GradedSeries(tr, {m: (-1) ** i * (i + 2) for i, m in enumerate(terms)})
    image = cut_join_apply(integers)
    assert image == _loop_cut_join_apply(integers)
    assert image.den == 1  # W keeps integer coefficients integral


def test_w_images_are_integral():
    tr = Truncation(p_weight=10)
    for K in range(1, 11):
        for lam in partitions_of(K):
            pblock = hurwitz_mono(0, lam, ())
            pkey = PACKER.pack(pblock)
            moves = _w_moves(pkey)
            assert all(type(c) is int for _, c in moves)
            ref = _loop_cut_join_apply(GradedSeries(tr, {pblock: Fraction(1)}))
            assert {PACKER.unpack(pkey + move): c for move, c in moves} == ref.term_dict()


def test_exact_div_raises_on_remainder():
    assert div(-12, 4) == -3
    with pytest.raises(ArithmeticError):
        div(7, 2)
    with pytest.raises(ArithmeticError):
        div(-1, 3)


def test_schur_eigenvectors():
    tr = Truncation(p_weight=6)
    for K in range(1, 7):
        for lam in partitions_of(K):
            s = schur_in_power_sums(lam, tr)
            assert cut_join_apply(s) == s.scalar_mul(central_weight(lam))


def test_evolve_beta_zero_slice_is_diagonal():
    beta0 = {
        m: c for m, c in evolve(4, 3).term_dict().items() if all(v != BETA_VAR for v, _ in m)
    }
    expected = {
        mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n) for n in range(1, 5)
    }
    assert beta0 == expected


def test_evolve_first_beta_coefficients():
    H = evolve(3, 2)
    m1 = mono_from_vars([(BETA_VAR, 1), (pvar(2), 1), (qvar(1), 2)])
    assert H.coefficient(m1) == Fraction(1, 2)
    m2 = mono_from_vars([(BETA_VAR, 1), (pvar(1), 2), (qvar(2), 1)])
    assert H.coefficient(m2) == Fraction(1, 2)


def test_evolve_invariants():
    H = evolve(4, 4)
    eH, _ = _fraction_evolve(4, 4)
    assert eH.coefficient(()) == 1
    assert eH.log() == H  # H from its own equation is the generic log of e^H
    assert H.exp() == eH


def test_frobenius_beta_zero_is_cauchy_product():
    # sum_lam s_lam(p) s_lam(q) = exp(sum p_n q_n / n)
    eH = frobenius_eH(4, 2)
    beta0 = GradedSeries(
        eH.truncation,
        {m: c for m, c in eH.term_dict().items() if all(v != BETA_VAR for v, _ in m)},
    )
    diag = GradedSeries(
        eH.truncation,
        {
            mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
            for n in range(1, 5)
        },
    )
    assert beta0 == diag.exp()


def test_evolution_matches_character_formula():
    assert evolve(4, 4) == frobenius_eH(4, 4).log()


def _schur_series(lam, trunc, var):
    return GradedSeries(trunc, {
        mono_from_vars([(var(part), 1) for part in mu]): Fraction(mn_character(lam, mu), zee(mu))
        for mu in partitions_of(sum(lam))
    })


def _schur_product_eH(q_weight_bound, beta_bound):
    """Reference for frobenius_eH, built as it was before it summed the
    character table directly: e^H = sum_lam e^{w(lam) beta} s_lam(p) s_lam(q),
    one product of Schur series per lam, times beta^m w^m / m! term by term."""
    trunc = Truncation(q_weight=q_weight_bound, p_weight=q_weight_bound, beta_deg=beta_bound)
    total: dict = {}
    for k in range(q_weight_bound + 1):
        for lam in partitions_of(k):
            w = central_weight(lam)
            spq = _schur_series(lam, trunc, pvar) * _schur_series(lam, trunc, qvar)
            for m in range(beta_bound + 1):
                if m > 0 and w == 0:
                    break
                coeff = Fraction(w**m, factorial(m))
                beta_m = ((BETA_VAR, m),) if m else ()
                for mono, c in spq.items():
                    mm = mono_from_vars(mono + beta_m)
                    total[mm] = total.get(mm, 0) + c * coeff
    return GradedSeries(trunc, total).term_dict()


def test_frobenius_eH_matches_schur_products():
    # (3, 2) reaches lam = (2, 1), whose weight is 0
    for q, b in [(1, 0), (3, 2), (4, 4), (6, 6), (7, 12)]:
        assert frobenius_eH(q, b).term_dict() == _schur_product_eH(q, b)


def _genus(mono) -> int:
    """g of beta^m p_lam q_mu, from m = len(lam) + len(mu) + 2g - 2."""
    parts = sum(e for v, e in mono if v != BETA_VAR)
    return (dict(mono).get(BETA_VAR, 0) + 2 - parts) // 2


@pytest.mark.parametrize("q_bound", range(1, 7))
def test_evolve_genus_cap_is_exact(q_bound):
    beta_bound = 2 * q_bound - 2
    full = evolve(q_bound, beta_bound)
    for cap in (0, 1, 2):
        capped = evolve(q_bound, beta_bound, max_genus=cap)
        assert capped.term_dict() == {m: c for m, c in full.items() if _genus(m) <= cap}, cap


def test_evolve_rejects_negative_genus_cap():
    with pytest.raises(ValueError):
        evolve(3, 2, max_genus=-1)


def _q_part_divides(mono, mu) -> bool:
    """Whether the q-part of mono divides q_mu, on a Counter of its own."""
    cap = Counter(mu)
    return all(e <= cap[var[1]] for var, e in mono if var[0] == "q")


@pytest.mark.parametrize("K", range(1, 6))
def test_evolve_q_cap_keeps_the_divisor_terms(K):
    # with q_cap = mu, evolve equals the terms of the full H whose q-part
    # divides q_mu, under every genus cap
    full = evolve(K, 9)
    for mu in partitions_of(K):
        for cap in (None, 0, 1, 2):
            expected = {m: c for m, c in full.items() if _q_part_divides(m, mu)
                        and (cap is None or _genus(m) <= cap)}
            assert evolve(K, 9, max_genus=cap, q_cap=mu).term_dict() == expected, (mu, cap)


@pytest.mark.parametrize("K", range(1, 6))
def test_cutjoin_number_equals_the_full_evolve(K):
    # every profile with m <= 9 and g <= 2: the restricted evolve's number is
    # m! times the coefficient of beta^m p_lam q_mu in the full H
    full = evolve(K, 9)
    for g in range(3):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                m = len(lam) + len(mu) + 2 * g - 2
                if m <= 9:
                    expected = full.coefficient(hurwitz_mono(m, lam, mu)) * factorial(m)
                    assert hurwitz_number_by_series(g, lam, mu, "cutjoin") == expected, (g, lam, mu)


@pytest.mark.parametrize("K", range(1, 6))
def test_frobenius_number_equals_the_logarithm_of_e_H(K):
    # every profile with g <= 2: the divisor-lattice number is m! times the
    # coefficient of beta^m p_lam q_mu in the generic log of the whole e^H
    logs = {}
    for g in range(3):
        for lam in partitions_of(K):
            for mu in partitions_of(K):
                m = len(lam) + len(mu) + 2 * g - 2
                if m not in logs:
                    logs[m] = frobenius_eH(K, m).log()
                expected = logs[m].coefficient(hurwitz_mono(m, lam, mu)) * factorial(m)
                assert hurwitz_number_by_series(g, lam, mu, "frobenius") == expected, (g, lam, mu)


def _swap_p_and_q(series: GradedSeries) -> dict:
    """The terms of series with each p_i and q_i exchanged, on tuples of their own."""
    swap = {"p": "q", "q": "p"}
    return {tuple(sorted(((swap[var[0]], var[1]) if var[0] in swap else var, e) for var, e in mono)): c
            for mono, c in series.items()}


@pytest.mark.parametrize("q_bound", range(1, 10))
def test_evolve_is_symmetric_in_p_and_q(q_bound):
    # h_lambda_series reads p_mu q_lam' q_1^e for p_lam' p_1^e q_mu
    runs = [evolve(q_bound, max(0, 2 * q_bound - 2), max_genus=0)]
    if q_bound <= 7:
        runs.append(evolve(q_bound, 2 * q_bound))
    for H in runs:
        assert _swap_p_and_q(H) == H.term_dict()


def test_genus0_series_fixes_beta_by_its_letters():
    # h_lambda_series reads only the p- and q-letters of the genus-0 series,
    # so each p_lam q_mu must sit at the one power m = len(lam) + len(mu) - 2
    for q_bound in range(1, 9):
        for mono, _ in evolve(q_bound, max(0, 2 * q_bound - 2), max_genus=0).items():
            parts = sum(e for v, e in mono if v != BETA_VAR)
            assert dict(mono).get(BETA_VAR, 0) == parts - 2, mono


def test_genus0_filter():
    tr = Truncation(q_weight=4, p_weight=4, beta_deg=4)
    keep = mono_from_vars([(BETA_VAR, 1), (pvar(2), 1), (qvar(1), 2)])  # 1 = 1+2-2
    drop = mono_from_vars([(BETA_VAR, 2), (pvar(2), 1), (qvar(2), 1)])  # 2 -> genus 1
    keep2 = mono_from_vars([(pvar(1), 1), (qvar(1), 1)])  # 0 = 1+1-2
    s = GradedSeries(tr, {keep: Fraction(1), drop: Fraction(1), keep2: Fraction(1)})
    assert genus0_part(s).term_dict() == {keep: Fraction(1), keep2: Fraction(1)}


def Qm(*pairs):
    return mono_from_vars([(qvar(k), e) for k, e in pairs])


def set_beta_one(series: GradedSeries) -> GradedSeries:
    """Reference: beta -> 1, merging the terms that differ only in beta."""
    out: dict = {}
    for mono, coeff in series.items():
        new = tuple((v, e) for v, e in mono if v != BETA_VAR)
        out[new] = out.get(new, 0) + coeff
    return GradedSeries(series.truncation, out)


def substitute_p1_shift(series: GradedSeries) -> GradedSeries:
    """Reference: the formal substitution p_1 -> p_1 + 1 by binomial
    re-expansion, term by term (h_lambda_series reads only the coefficients
    it needs)."""
    p1 = pvar(1)
    out: dict = {}
    for mono, coeff in series.items():
        e = dict(mono).get(p1, 0)
        rest = tuple((v, x) for v, x in mono if v != p1)
        for i in range(e + 1):
            new = mono_from_vars(rest + ((p1, i),)) if i else rest
            out[new] = out.get(new, 0) + coeff * comb(e, i)
    return GradedSeries(series.truncation, out)


def _shifted_h_lambda_series(shifted: GradedSeries, lam, q_bound: int) -> GradedSeries:
    """Reference h_lam: the q-series of p_lam in the p_1-shifted genus-0
    series, times |Aut lam|."""
    target = mono_from_vars([(pvar(part), 1) for part in lam])
    out: dict = {}
    for mono, coeff in shifted.items():
        if tuple(pair for pair in mono if pair[0][0] == "p") == target:
            qpart = tuple(pair for pair in mono if pair[0][0] == "q")
            out[qpart] = out.get(qpart, 0) + coeff * aut_order(lam)
    return GradedSeries(Truncation(q_weight=q_bound), out)


@pytest.mark.parametrize("q_bound", range(1, 8))
def test_h_series_matches_full_shift(q_bound):
    # the whole genus-0 part of the full evolve, p_1-shifted at once
    g0 = genus0_part(evolve(q_bound, max(0, 2 * q_bound - 2)))
    shifted = substitute_p1_shift(set_beta_one(g0))
    lams = [lam for n in range(1, q_bound + 2) for lam in partitions_of(n)]
    for lam, h in zip(lams, h_lambda_series(lams, q_bound), strict=True):
        assert h == _shifted_h_lambda_series(shifted, lam, q_bound), lam


def test_h_series_of_a_list_equals_each_alone():
    # one evolve on the union of the caps serves every lam; (7,) lies past
    # the bound, and (3, 3) shares its q_3^2 with no other lam
    lams = [(1,), (3,), (2, 2), (4, 1, 1), (3, 3), (1, 1, 1, 1, 1), (7,)]
    together = h_lambda_series(lams, 6)
    assert together == [h_lambda_series([lam], 6)[0] for lam in lams]
    assert not together[-1].nums and all(h.nums for h in together[:-1])
    assert h_lambda_series([], 6) == []
    with pytest.raises(ValueError):
        h_lambda_series([(2,), ()], 6)


def test_h_series_degree_one():
    h1, = h_lambda_series([(1,)], 3)
    assert h1.coefficient(Qm((1, 1))) == 1


def test_h_series_degree_two():
    h2, = h_lambda_series([(2,)], 4)
    assert h2.coefficient(Qm((2, 1))) == Fraction(1, 2)
    assert h2.coefficient(Qm((1, 2))) == Fraction(1, 2)


def test_h_series_part_order_irrelevant():
    assert h_lambda_series([(2, 3)], 6) == h_lambda_series([(3, 2)], 6)


def test_h_series_coefficients_nonnegative():
    for lam in [(1,), (2,), (3,), (2, 1), (2, 2), (3, 2)]:
        for _, coeff in h_lambda_series([lam], 6)[0].terms():
            assert coeff >= 0


def test_hurwitz_number_methods_agree():
    cases = [
        (0, (2,), (2,)),
        (0, (2,), (1, 1)),
        (0, (1, 1), (2,)),
        (0, (3,), (3,)),
        (1, (2,), (2,)),
        (1, (1,), (1,)),
    ]
    from doublehurwitz.oracle import oracle_count

    for g, lam, mu in cases:
        by_oracle = oracle_count(g, lam, mu)
        assert hurwitz_number_by_series(g, lam, mu, "cutjoin") == by_oracle
        assert hurwitz_number_by_series(g, lam, mu, "frobenius") == by_oracle

    assert hurwitz_number_by_series(0, (2,), (2,), "cutjoin") == Fraction(1, 2)


def _sinh_ratio_coefficients(x, top: int) -> list:
    """[t^0], [t^2], ..., [t^(2 top)] of S(x t), S(t) = sinh(t/2) / (t/2)."""
    return [Fraction(x ** (2 * k), 4 ** k * factorial(2 * k + 1)) for k in range(top + 1)]


def _one_part_formula(g: int, d: int, mu) -> Fraction:
    """Goulden-Jackson-Vakil (math/0309440, Thm 3.1): h_g((d), mu) =
    r! d^(r-1) [t^(2g)] prod_i S(mu_i t) / S(t) / |Aut mu|, r = 2g - 1 + len(mu)."""
    r = 2 * g - 1 + len(mu)
    series = [Fraction(1)] + [Fraction(0)] * g  # in t^2
    for part in mu:
        factor = _sinh_ratio_coefficients(part, g)
        series = [sum(series[i] * factor[k - i] for i in range(k + 1)) for k in range(g + 1)]
    inverse = [Fraction(1)]  # 1 / S(t), from S(t) inverse = 1
    s = _sinh_ratio_coefficients(1, g)
    for k in range(1, g + 1):
        inverse.append(-sum(s[i] * inverse[k - i] for i in range(1, k + 1)))
    top = sum(series[i] * inverse[g - i] for i in range(g + 1))
    return factorial(r) * Fraction(d) ** (r - 1) * top / aut_order(mu)


@pytest.mark.parametrize("method", ["cutjoin", "frobenius"])
def test_hurwitz_number_one_part_formula(method):
    # at genus 0 the formula is m! d^(m-1) / |Aut mu| with m = len(mu) - 1 (1/d at m = 0)
    for g in range(3) if method == "cutjoin" else (0,):
        for d in range(1, 8 if method == "cutjoin" else 17):
            for mu in partitions_of(d):
                if 2 * g - 1 + len(mu) <= 10:
                    expected = _one_part_formula(g, d, mu)
                    assert hurwitz_number_by_series(g, (d,), mu, method) == expected, (g, mu)


@pytest.mark.parametrize("method", ["cutjoin", "frobenius"])
def test_hurwitz_number_two_by_two_chamber_formula(method):
    # genus 0, two parts on each side: h |Aut lam| |Aut mu| = 2 max(lam_1, mu_1)
    for d in range(2, 13 if method == "cutjoin" else 17):
        two_part = [lam for lam in partitions_of(d) if len(lam) == 2]
        for lam in two_part:
            for mu in two_part:
                h = hurwitz_number_by_series(0, lam, mu, method)
                assert h * aut_order(lam) * aut_order(mu) == 2 * max(lam[0], mu[0]), (lam, mu)


def test_hurwitz_number_bad_method():
    with pytest.raises(ValueError):
        hurwitz_number_by_series(0, (2,), (2,), "guess")
    for method in ("cutjoin", "frobenius"):
        with pytest.raises(ValueError):  # m = 0, but no genus is negative
            hurwitz_number_by_series(-1, (3,), (1, 1, 1), method)
        with pytest.raises(TypeError):  # True would be counted as genus 1
            hurwitz_number_by_series(True, (2,), (1, 1), method)
