import json
import random
from fractions import Fraction

import pytest

from doublehurwitz.series import (
    BETA_VAR,
    GradedSeries,
    Truncation,
    TruncationMismatch,
    mono_from_vars,
    mono_str,
    mono_weights,
    pvar,
    qvar,
    tvar,
)

TR = Truncation(q_weight=8, p_weight=8)


def q(k, e=1):
    return mono_from_vars([(qvar(k), e)])


def diagonal_series(trunc, bound):
    return GradedSeries(
        trunc,
        {
            mono_from_vars([(pvar(n), 1), (qvar(n), 1)]): Fraction(1, n)
            for n in range(1, bound + 1)
        },
    )


def random_series(trunc, rng, max_terms=6, zero_constant=False):
    pool = [
        (),
        q(1),
        q(2),
        q(1, 2),
        q(3),
        mono_from_vars([(qvar(1), 1), (qvar(2), 1)]),
        mono_from_vars([(pvar(1), 1)]),
        mono_from_vars([(pvar(2), 1), (qvar(1), 1)]),
        mono_from_vars([(pvar(1), 2), (qvar(2), 1)]),
        q(4),
    ]
    terms = {}
    for mono in rng.sample(pool, rng.randint(2, max_terms)):
        if zero_constant and mono == ():
            continue
        terms[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return GradedSeries(trunc, terms)


def test_coefficient_of_diagonal():
    s = diagonal_series(TR, 8)
    assert s.coefficient(mono_from_vars([(pvar(1), 1), (qvar(1), 1)])) == 1
    assert s.coefficient(q(1)) == 0


def test_diff_and_mul_basics():
    q1sq = GradedSeries(TR, {q(1, 2): Fraction(1)})
    assert q1sq.diff(qvar(1)) == GradedSeries(TR, {q(1): Fraction(2)})
    p1q1 = GradedSeries(TR, {mono_from_vars([(pvar(1), 1), (qvar(1), 1)]): Fraction(1)})
    prod = p1q1 * p1q1
    assert prod == GradedSeries(TR, {mono_from_vars([(pvar(1), 2), (qvar(1), 2)]): Fraction(1)})


def test_ring_laws_on_random_triples():
    rng = random.Random(20240811)
    for _ in range(25):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        c = random_series(TR, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_no_zero_coefficients_after_operations():
    rng = random.Random(7)
    for _ in range(20):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        for s in (a + (-a), a - a, a * b, a + b, a.diff(qvar(1))):
            assert all(c != 0 for c in s.term_dict().values())


def test_truncation_mismatch_raises():
    a = GradedSeries(Truncation(q_weight=4), {q(1): Fraction(1)})
    b = GradedSeries(Truncation(q_weight=5), {q(1): Fraction(1)})
    with pytest.raises(TruncationMismatch):
        a + b
    with pytest.raises(TruncationMismatch):
        a * b


def test_mul_prunes_beyond_truncation():
    tr = Truncation(q_weight=3)
    a = GradedSeries(tr, {q(2): Fraction(1)})
    b = GradedSeries(tr, {q(2): Fraction(1), q(1): Fraction(1)})
    assert (a * b).term_dict() == {mono_from_vars([(qvar(1), 1), (qvar(2), 1)]): Fraction(1)}


def test_exp_log_basics():
    tr = Truncation(q_weight=5)
    zero = GradedSeries.zero(tr)
    assert zero.exp() == GradedSeries.one(tr)
    one_plus_q1 = GradedSeries(tr, {(): Fraction(1), q(1): Fraction(1)})
    mercator = one_plus_q1.log()
    expected = GradedSeries(
        tr, {q(1, e): Fraction((-1) ** (e + 1), e) for e in range(1, 6)}
    )
    assert mercator == expected


def test_exp_of_diagonal_truncated_at_weight_two():
    tr = Truncation(q_weight=2, p_weight=2)
    s = diagonal_series(tr, 2)
    expected = GradedSeries(
        tr,
        {
            (): Fraction(1),
            mono_from_vars([(pvar(1), 1), (qvar(1), 1)]): Fraction(1),
            mono_from_vars([(pvar(2), 1), (qvar(2), 1)]): Fraction(1, 2),
            mono_from_vars([(pvar(1), 2), (qvar(1), 2)]): Fraction(1, 2),
        },
    )
    assert s.exp() == expected


def test_exp_log_round_trip_on_random_series():
    rng = random.Random(99)
    for _ in range(15):
        s = random_series(TR, rng, zero_constant=True)
        assert s.exp().log() == s


def test_exp_requires_zero_constant_and_log_requires_one():
    s = GradedSeries(TR, {(): Fraction(2)})
    with pytest.raises(ValueError):
        s.exp()
    with pytest.raises(ValueError):
        s.log()


def test_exp_rejects_unbounded_directions():
    s = GradedSeries(Truncation(q_weight=4), {mono_from_vars([(BETA_VAR, 1)]): Fraction(1)})
    with pytest.raises(ValueError):
        s.exp()


def test_log_rejects_unbounded_directions():
    s = GradedSeries(
        Truncation(q_weight=4), {(): Fraction(1), mono_from_vars([(BETA_VAR, 1)]): Fraction(1)}
    )
    with pytest.raises(ValueError):
        s.log()


def test_exp_log_round_trip_with_negative_psi_exponent():
    # t_2 psi^-1 has positive grade, since psi is never bounded
    from doublehurwitz.series import PSI_VAR, svar

    mono = mono_from_vars([(svar(2), 1), (PSI_VAR, -1)])
    unbounded_psi = GradedSeries(Truncation(s_weight=4), {mono: Fraction(1)})
    assert unbounded_psi.exp().log() == unbounded_psi


def _power_exp(s):
    """Reference exp by power iteration, sum_j s^j / j!: each step multiplies
    the whole series (the implementation before the graded recursion)."""
    result = GradedSeries.one(s.truncation)
    power = GradedSeries.one(s.truncation)
    j = 0
    while True:
        j += 1
        power = (power * s).scalar_mul(Fraction(1, j))
        if power.is_zero():
            return result
        result = result + power


def _power_log(s):
    """Reference log by power iteration, sum_j (-1)^(j+1) u^j / j, u = s - 1."""
    u = s - GradedSeries.one(s.truncation)
    result = GradedSeries.zero(s.truncation)
    power = GradedSeries.one(s.truncation)
    j = 0
    while True:
        j += 1
        power = power * u
        if power.is_zero():
            return result
        result = result + power.scalar_mul(Fraction((-1) ** (j + 1), j))


def test_graded_exp_log_match_power_iteration_on_random_series():
    rng = random.Random(99)
    for _ in range(15):
        s = random_series(TR, rng, zero_constant=True)
        assert s.exp() == _power_exp(s)
        one_plus = s + GradedSeries.one(TR)
        assert one_plus.log() == _power_log(one_plus)


def test_graded_exp_log_match_power_iteration_on_diagonal():
    s = diagonal_series(TR, 8)
    e = s.exp()
    assert e == _power_exp(s)
    assert e.log() == _power_log(e) == s


def test_graded_log_matches_power_iteration_on_tau_and_frobenius():
    from doublehurwitz.cutjoin import frobenius_eH
    from doublehurwitz.kp import tau_series

    tau = tau_series(8)
    assert tau.log() == _power_log(tau)
    eH = frobenius_eH(5, 3)
    assert eH.log() == _power_log(eH)


def test_graded_exp_matches_power_iteration_on_evolved_potential():
    from doublehurwitz.cutjoin import evolve

    H = evolve(4, 4)
    assert H.exp() == _power_exp(H)


def test_from_terms_drops_zero_coefficients():
    s = GradedSeries.from_terms(TR, {q(1): Fraction(0), q(2): Fraction(3)})
    assert s.term_dict() == {q(2): Fraction(3)}
    assert GradedSeries.from_terms(TR, {q(1): Fraction(0)}).is_zero()


def test_diff_commutes():
    rng = random.Random(5)
    for _ in range(15):
        s = random_series(TR, rng)
        assert s.diff(qvar(1)).diff(qvar(2)) == s.diff(qvar(2)).diff(qvar(1))


def test_substitute_p1_shift_examples():
    from test_cutjoin import substitute_p1_shift

    tr = Truncation(q_weight=4, p_weight=4)
    p1 = pvar(1)
    sq = GradedSeries(tr, {mono_from_vars([(p1, 2)]): Fraction(1)})
    assert substitute_p1_shift(sq) == GradedSeries(
        tr,
        {mono_from_vars([(p1, 2)]): Fraction(1), mono_from_vars([(p1, 1)]): Fraction(2), (): Fraction(1)},
    )
    p2q2 = GradedSeries(tr, {mono_from_vars([(pvar(2), 1), (qvar(2), 1)]): Fraction(1)})
    assert substitute_p1_shift(p2q2) == p2q2
    p1p2 = GradedSeries(tr, {mono_from_vars([(p1, 1), (pvar(2), 1)]): Fraction(1)})
    assert substitute_p1_shift(p1p2) == GradedSeries(
        tr,
        {
            mono_from_vars([(p1, 1), (pvar(2), 1)]): Fraction(1),
            mono_from_vars([(pvar(2), 1)]): Fraction(1),
        },
    )


def test_json_dict_is_bit_exact():
    tr = Truncation(q_weight=8, p_weight=8, t_weight=6, beta_deg=3)
    terms = {
        mono_from_vars([(qvar(2), 1), (pvar(1), 2)]): Fraction(1, 2),
        mono_from_vars([(tvar(1, 0), 1), (BETA_VAR, 2)]): Fraction(-5, 3),
        (): Fraction(7),
    }
    # the form `h-series --format json` writes
    assert GradedSeries(tr, terms).to_json_dict() == {
        "truncation": {"q_weight": 8, "p_weight": 8, "t_weight": 6, "beta_deg": 3},
        "terms": [
            {"monomial": [], "coeff": "7/1"},
            {"monomial": [["b", 2], ["t", 1, 0, 1]], "coeff": "-5/3"},
            {"monomial": [["p", 1, 2], ["q", 2, 1]], "coeff": "1/2"},
        ],
    }
    rng = random.Random(13)
    for _ in range(10):
        s = random_series(TR, rng)
        data = s.to_json_dict()
        assert json.loads(json.dumps(data)) == data
        assert [Fraction(t["coeff"]) for t in data["terms"]] == [c for _, c in s.terms()]


def test_mono_weights_and_str():
    m = mono_from_vars([(qvar(3), 2), (tvar(1, 2), 1)])
    assert mono_weights(m) == (6, 0, 4, 0, 0, 0, 0)
    assert mono_str(m) == "q_3^2*t_{1,2}"
    assert mono_str(()) == "1"


def naive_mul(a, b):
    """Term-pair reference product, no weight bucketing."""
    from doublehurwitz.series import mono_mul

    trunc = a.truncation
    acc = {}
    for ml, cl in a.term_dict().items():
        for mr, cr in b.term_dict().items():
            m = mono_mul(ml, mr)
            if trunc.admits(m):
                acc[m] = acc.get(m, 0) + cl * cr
    return GradedSeries(trunc, acc)


def test_bucketed_mul_matches_naive_reference():
    rng = random.Random(2718)
    for _ in range(25):
        a = random_series(TR, rng)
        b = random_series(TR, rng)
        assert a * b == naive_mul(a, b)


def test_truncation_admits_negative_psi():
    from doublehurwitz.series import PSI_VAR

    tr = Truncation(s_weight=4)
    laurent = mono_from_vars([(PSI_VAR, -5)])
    assert tr.admits(laurent)
