import json
from fractions import Fraction
from math import factorial

import pytest

from doublehurwitz.cli import run
from doublehurwitz.partitions import partitions_of, zee
from doublehurwitz.series import Truncation, mono_from_vars, pvar
from doublehurwitz.symgroup import (
    CHARTABLE_VERSION,
    CharTable,
    central_weight,
    mn_character,
    schur_in_power_sums,
)


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


def test_char_table_orthogonality():
    for K in range(1, 7):
        assert CharTable.build(K).check_orthogonality()


def test_char_table_cache_round_trip(tmp_path):
    table = CharTable.load_or_build(tmp_path, 4)
    assert CharTable.cache_path(tmp_path, 4).exists()
    again = CharTable.load_or_build(tmp_path, 4)
    assert again.values == table.values
    assert again.values[((2, 1, 1), (4,))] == mn_character((2, 1, 1), (4,))


def _edit_cache(cache_dir, K, edit):
    path = CharTable.cache_path(cache_dir, K)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _no_build(K):
    raise AssertionError("a valid cached table was rebuilt")


def test_char_table_valid_cache_is_not_rebuilt(tmp_path, monkeypatch):
    CharTable.load_or_build(tmp_path, 5)
    assert json.loads(CharTable.cache_path(tmp_path, 5).read_text())["version"] == CHARTABLE_VERSION
    assert [p.name for p in tmp_path.iterdir()] == ["chartable_K5.json"]  # no temp file left
    monkeypatch.setattr(CharTable, "build", staticmethod(_no_build))
    assert CharTable.load_or_build(tmp_path, 5).values[((3, 2), (5,))] == mn_character((3, 2), (5,))


def _perturb_entry(data):
    # chi^(1^K)_(1^K): read unchecked at K = 3, it turns h_0((3), (1,1,1)) into 7/2
    data["values"][0]["chi"] += 5


def _drop_key(data):
    del data["values"][-1]


def _wrong_K(data):
    data["K"] = 3


def _stale_version(data):
    del data["version"]


def _flip_row(data):
    for e in data["values"]:
        if e["lam"] == [2, 1, 1]:
            e["chi"] = -e["chi"]


def _swap_rows(data):
    # (3,1) and (2,1,1) share dimension 3 but not central weight; read
    # unchecked, the swap turns h_0((4), (1,1,1,1)) into 5 instead of 4
    swap = {(3, 1): [2, 1, 1], (2, 1, 1): [3, 1]}
    for e in data["values"]:
        e["lam"] = swap.get(tuple(e["lam"]), e["lam"])


def _set_first_chi(data, value):
    # chi^(1^K)_(1^K) = 1, written as another JSON type
    assert data["values"][0]["chi"] == 1
    data["values"][0]["chi"] = value


def _chi_as_string(data):
    _set_first_chi(data, "1")


def _chi_as_float(data):
    _set_first_chi(data, 1.0)


def _chi_as_bool(data):
    _set_first_chi(data, True)


def _K_as_float(data):
    data["K"] = 4.0


def _parts_as_float(data, key):
    # every part 4 as 4.0, which hashes like 4
    for e in data["values"]:
        e[key] = [float(x) if x == 4 else x for x in e[key]]


def _lam_part_as_float(data):
    _parts_as_float(data, "lam")


def _mu_part_as_float(data):
    _parts_as_float(data, "mu")


_NOT_INTS = [_chi_as_string, _chi_as_float, _chi_as_bool, _K_as_float, _lam_part_as_float,
             _mu_part_as_float]


@pytest.mark.parametrize(
    "edit", [_perturb_entry, _drop_key, _wrong_K, _stale_version, _flip_row, _swap_rows] + _NOT_INTS
)
def test_char_table_bad_cache_is_rebuilt(tmp_path, edit):
    good = CharTable.build(4)
    good.save(tmp_path)
    _edit_cache(tmp_path, 4, edit)
    assert CharTable.load_valid(CharTable.cache_path(tmp_path, 4), 4) is None
    assert CharTable.load_or_build(tmp_path, 4).values == good.values
    # the bad file was overwritten with the rebuilt table
    assert CharTable.load_valid(CharTable.cache_path(tmp_path, 4), 4).values == good.values


def test_char_table_unreadable_cache_is_rebuilt(tmp_path):
    CharTable.cache_path(tmp_path, 3).write_text("{not json")
    assert CharTable.load_or_build(tmp_path, 3).values == CharTable.build(3).values


def test_corrupt_cache_never_reaches_frobenius(tmp_path, capsys):
    # frobenius reads no cached table: a corrupt one is neither read nor rewritten
    CharTable.build(3).save(tmp_path)
    _edit_cache(tmp_path, 3, _perturb_entry)
    planted = CharTable.cache_path(tmp_path, 3).read_bytes()
    args = ["--cache-dir", str(tmp_path),
            "compute-hurwitz", "--genus", "0", "--method", "frobenius", "--lambda", "3",
            "--mu", "1,1,1"]
    assert run(args) == 0
    assert run(args) == 0
    assert capsys.readouterr().out == "1/1\n1/1\n"
    assert CharTable.cache_path(tmp_path, 3).read_bytes() == planted


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
