import json
from fractions import Fraction
from math import factorial
from operator import mul

import pytest

from doublehurwitz.cli import run
from doublehurwitz.partitions import partitions_of, zee
from doublehurwitz.series import Truncation, mono_from_vars, pvar
from doublehurwitz.symgroup import CharTable, central_weight, mn_character, schur_in_power_sums


def hook_length_dimension(lam):
    """Independent dimension formula: |lam|! / product of hook lengths."""
    if not lam:
        return 1
    cols = [0] * lam[0]
    for row in lam:
        for j in range(row):
            cols[j] += 1
    dim = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            dim //= (row - j) + (cols[j] - i) - 1
    return dim


def half_integer_weight(lam):
    """central_weight's former formula, in Fractions:
    w(lam) = (1/2) sum_i ((lam_i - i + 1/2)^2 - (-i + 1/2)^2)."""
    half = Fraction(1, 2)
    return half * sum(
        (part - i + half) ** 2 - (-i + half) ** 2 for i, part in enumerate(lam, start=1)
    )


def test_character_examples():
    assert mn_character((2,), (2,)) == 1
    assert mn_character((1, 1), (2,)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2,), (3,))


def test_dimensions_match_hook_length_formula():
    for K in range(1, 8):
        ones = tuple([1] * K)
        for lam in partitions_of(K):
            assert mn_character(lam, ones) == hook_length_dimension(lam)


def rows_orthogonal(table):
    """Row orthogonality of a CharTable, in integers:
    sum_mu chi^lam_mu chi^rho_mu K!/z_mu = K! delta_{lam rho}.

    For the square table X this reads X D X^T = K! I with D the diagonal of
    class sizes, so X^{-1} = D X^T / K! and X^T X = K! D^{-1}: column
    orthogonality, sum_lam chi^lam_mu chi^lam_nu = z_mu delta_{mu nu},
    follows and needs no second check.  A single wrong entry always fails
    it (it changes its column's norm by a nonzero integer)."""
    parts = partitions_of(table.K)
    rows = [[table.values[(lam, mu)] for mu in parts] for lam in parts]
    order = factorial(table.K)
    sizes = [order // zee(mu) for mu in parts]
    for i, row in enumerate(rows):
        weighted = list(map(mul, row, sizes))
        for j in range(i, len(rows)):
            if sum(map(mul, weighted, rows[j])) != (order if i == j else 0):
                return False
    return True


def dimensions_positive(table):
    """Each row's dimension chi^lam_(1^K) is positive."""
    ones = (1,) * table.K
    return all(table.values[(lam, ones)] > 0 for lam in partitions_of(table.K))


def transpositions_match(table):
    """chi^lam_t K(K-1)/2 = central_weight(lam) dim(lam), t = (2, 1^(K-2))."""
    K = table.K
    ones, t = (1,) * K, (2,) + (1,) * (K - 2)
    return K == 1 or all(
        table.values[(lam, t)] * K * (K - 1) == 2 * central_weight(lam) * table.values[(lam, ones)]
        for lam in partitions_of(K)
    )


TABLE_DEGREES = range(1, 9)


def test_char_table_orthogonality():
    for K in TABLE_DEGREES:
        table = CharTable.build(K)
        parts = partitions_of(K)
        assert table.K == K
        assert table.values.keys() == {(lam, mu) for lam in parts for mu in parts}
        assert rows_orthogonal(table)


def test_char_table_dimensions_are_positive():
    for K in TABLE_DEGREES:
        assert dimensions_positive(CharTable.build(K))


def test_char_table_transposition_identity():
    for K in TABLE_DEGREES:
        assert transpositions_match(CharTable.build(K))


def test_each_table_check_sees_what_the_others_miss():
    good = CharTable.build(4)

    def edited(edit):
        return CharTable(4, {(lam, mu): edit(lam, mu, chi) for (lam, mu), chi in good.values.items()})

    # one entry off by 5 fails orthogonality
    perturbed = edited(lambda lam, mu, chi: chi + 5 * (lam == mu == (1, 1, 1, 1)))
    assert not rows_orthogonal(perturbed)
    # a row with every sign flipped keeps orthogonality; its dimension is -3
    flipped = edited(lambda lam, mu, chi: -chi if lam == (2, 1, 1) else chi)
    assert rows_orthogonal(flipped) and not dimensions_positive(flipped)
    # (3,1) and (2,1,1) share dimension 3 but not central weight: swapping
    # their rows keeps both checks above and fails the transposition identity
    swap = {(3, 1): (2, 1, 1), (2, 1, 1): (3, 1)}
    swapped = edited(lambda lam, mu, chi: good.values[(swap.get(lam, lam), mu)])
    assert rows_orthogonal(swapped) and dimensions_positive(swapped)
    assert not transpositions_match(swapped)


def test_corrupt_cache_never_reaches_frobenius(tmp_path, capsys):
    # frobenius reads no cached table: a corrupt one is neither read nor
    # rewritten.  The planted file has the layout the former cache wrote,
    # with chi^(1^3)_(1^3) = 6; read unchecked, it would turn
    # h_0((3), (1,1,1)) into 7/2
    entries = [{"lam": list(lam), "mu": list(mu), "chi": chi}
               for (lam, mu), chi in sorted(CharTable.build(3).values.items())]
    entries[0]["chi"] += 5
    path = tmp_path / "chartable_K3.json"
    path.write_text(json.dumps({"version": "chartable-v1", "K": 3, "values": entries}))
    planted = path.read_bytes()
    args = ["--cache-dir", str(tmp_path),
            "compute-hurwitz", "--genus", "0", "--method", "frobenius", "--lambda", "3",
            "--mu", "1,1,1"]
    assert run(args) == 0
    assert run(args) == 0
    assert capsys.readouterr().out == "1/1\n1/1\n"
    assert path.read_bytes() == planted
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_K3.json"]


def test_schur_examples():
    tr = Truncation(p_weight=4)
    p1 = mono_from_vars([(pvar(1), 1)])
    p1sq = mono_from_vars([(pvar(1), 2)])
    p2 = mono_from_vars([(pvar(2), 1)])
    assert schur_in_power_sums((1,), tr).term_dict() == {p1: Fraction(1)}
    assert schur_in_power_sums((2,), tr).term_dict() == {
        p1sq: Fraction(1, 2),
        p2: Fraction(1, 2),
    }
    assert schur_in_power_sums((1, 1), tr).term_dict() == {
        p1sq: Fraction(1, 2),
        p2: Fraction(-1, 2),
    }
    assert schur_in_power_sums((), tr).term_dict() == {(): Fraction(1)}


def test_schur_dimension_normalization():
    # coefficient of p_1^K in s_lam is dim(lam)/K!
    tr = Truncation(p_weight=6)
    for K in range(1, 7):
        for lam in partitions_of(K):
            coeff = schur_in_power_sums(lam, tr).coefficient(mono_from_vars([(pvar(1), K)]))
            assert coeff == Fraction(hook_length_dimension(lam), factorial(K))


def test_central_weight_examples():
    assert central_weight((1,)) == 0
    assert central_weight((2,)) == 1
    assert central_weight((1, 1)) == -1


def test_central_weight_equals_content_sum_and_integrality():
    for K in range(1, 13):
        for lam in partitions_of(K):
            w = central_weight(lam)
            assert type(w) is int
            assert w == half_integer_weight(lam)


def test_zee_matches_character_normalization():
    # column orthogonality at mu = mu' gives sum_lam chi^2 = z_mu
    for K in range(1, 6):
        for mu in partitions_of(K):
            total = sum(mn_character(lam, mu) ** 2 for lam in partitions_of(K))
            assert total == zee(mu)
