import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from doublehurwitz import recursion
from doublehurwitz.golden import GOLDEN_H_POLYS
from doublehurwitz.partitions import compositions, multinomial
from doublehurwitz.recursion import (
    XTABLE_VERSION,
    XTable,
    _block_product,
    _consumed_types,
    _correction,
    compute_x,
    dilaton_identity_sides,
    h_poly,
    initial_x,
    keys_up_to,
    make_xkey,
    populate_table,
    string_identity_sides,
)
from doublehurwitz.verify import suite_string_dilaton
from doublehurwitz.zseries import ZPoly, zpoly_eval
from test_zseries import _FractionZPoly


def test_make_xkey_canonical():
    assert make_xkey([(1, 0), (2, 1), (2, 0)]) == ((2, 1), (2, 0), (1, 0))
    with pytest.raises(ValueError):
        make_xkey([])
    with pytest.raises(ValueError):
        make_xkey([(-1, 0)])


def test_initial_x_examples():
    assert initial_x((0,)) == ZPoly.gen(0, 1)
    assert initial_x((1, 1)) == ZPoly.gen(2, 2) * 2
    assert initial_x((2, 0, 0)) == ZPoly.gen(2, 3)


def test_golden_polynomials_exact():
    table = XTable()
    for lam, expected in GOLDEN_H_POLYS.items():
        assert h_poly(lam, table) == expected, lam


def test_symmetry_under_pair_permutation():
    table = XTable()
    rng = random.Random(3)
    keys = [
        [(2, 0), (1, 1), (0, 1)],
        [(3, 1), (1, 0)],
        [(2, 2), (2, 0), (1, 1)],
    ]
    for pairs in keys:
        base = compute_x(pairs, table)
        for _ in range(3):
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert compute_x(shuffled, table) == base


def test_pivot_independence_small_sample():
    table = XTable()
    for pairs in ([(2, 0), (1, 0)], [(2, 1), (1, 1)], [(3, 0), (2, 0)], [(1, 1), (1, 0), (1, 0)]):
        key = make_xkey(pairs)
        base = compute_x(key, table)
        for i in range(len(key)):
            if key[i][0] < 1:
                continue
            alt = compute_x(key, table, pivot_index=i)
            diff = alt - base
            assert not diff or zpoly_eval(diff, 10).is_zero(), (key, i)


def test_recursion_termination_large_nu():
    # nu indices do not obstruct termination; lam weight strictly drops
    value = compute_x([(2, 3), (0, 5)])
    assert isinstance(value, ZPoly)


def test_invalid_pivot_rejected():
    # index 1 points at (0,2), which cannot be rewritten
    with pytest.raises(ValueError):
        compute_x(make_xkey([(1, 0), (0, 2)]), pivot_index=1)


@pytest.mark.parametrize("key, pivot_index", [([(0, 1), (0, 0)], 0), ([(0, 1), (0, 0)], 1),
                                               ([(1, 0), (0, 0)], 1)])
def test_pivot_with_lam_zero_rejected(key, pivot_index):
    # no entry with lam = 0 is a pivot, in the all-zero key too
    with pytest.raises(ValueError, match="must have lam >= 1"):
        compute_x(key, pivot_index=pivot_index)


@pytest.mark.parametrize("pivot_index", [-1, -3, 3, 7])
def test_pivot_index_outside_the_key_rejected(pivot_index):
    # -1 used to rewrite with rest = key[:-1] + key, and len(key) raised a
    # bare IndexError
    key = make_xkey([(2, 1), (2, 0), (1, 1)])
    with pytest.raises(ValueError, match="pivot index"):
        compute_x(key, XTable(), pivot_index=pivot_index)


@pytest.mark.parametrize(
    "call",
    [
        lambda: h_poly((2.5,)),
        lambda: h_poly((2, 1.0)),
        lambda: h_poly((True,)),
        lambda: make_xkey([(1.9, 0.5)]),
        lambda: make_xkey([(1, 0), ("2", 0)]),
        lambda: make_xkey([(1, True)]),
        lambda: initial_x((1.0, 2)),
        lambda: initial_x(("1",)),
        lambda: compute_x([(2.0, 0)]),
    ],
)
def test_entry_points_reject_non_ints(call):
    with pytest.raises(TypeError, match="must be ints|expected an int"):
        call()


def test_string_dilaton_identities():
    rows = suite_string_dilaton()
    assert all(ok for _, ok, _ in rows), rows


def test_string_identity_concrete_case():
    # for R = {(0,0)}: x_{(0,0),(0,0)} = z_{0,2} and the Euler image of z_{0,1}
    lhs, rhs = string_identity_sides(((0, 0),))
    assert lhs == ZPoly.gen(0, 2)
    assert rhs == ZPoly.gen(0, 2)


def test_dilaton_identity_concrete_case():
    # for R = {(0,0)}: x_{(0,1),(0,0)} = z_{1,2} = -z_{0,1} + Euler(z_{0,1})
    lhs, rhs = dilaton_identity_sides(((0, 0),))
    assert lhs == ZPoly.gen(1, 2)
    assert rhs == lhs or zpoly_eval(lhs - rhs, 10).is_zero()


def test_keys_up_to_deterministic_and_bounded():
    keys = keys_up_to(3, 2, 1)
    assert keys == sorted(keys)
    assert all(sum(a for a, _ in k) <= 3 for k in keys)
    assert all(sum(b for _, b in k) <= 1 for k in keys)
    assert all(1 <= len(k) <= 2 for k in keys)
    assert keys == keys_up_to(3, 2, 1)


def test_xtable_file_is_the_documented_list_of_lists(tmp_path):
    table = populate_table(3, 2, 1)
    entries = [
        {
            "key": [[lam, nu] for lam, nu in key],
            "poly": [
                {"gens": [[d, r] for d, r in gens], "coeff": f"{c.numerator}/{c.denominator}"}
                for gens, c in sorted(table.entries[key].terms.items())
            ],
        }
        for key in sorted(table.entries)
    ]
    path = table.save(tmp_path / "cache.json")
    assert path.read_text() == json.dumps({"version": XTABLE_VERSION, "entries": entries})


def test_xtable_json_round_trip(tmp_path):
    table = populate_table(3, 2, 1)
    path = table.save(tmp_path / "cache.json")
    again = XTable.load(path)
    assert again.entries == table.entries


def test_xtable_json_holds_only_key_and_poly():
    # how an entry was made follows from its key, so the file does not say
    blob = populate_table(3, 2, 1).to_json_dict()
    assert blob["version"] == "xtable-v2"
    assert all(set(entry) == {"key", "poly"} for entry in blob["entries"])
    blob["version"] = "xtable-v1"
    with pytest.raises(ValueError, match="xtable-v1"):
        XTable.from_json_dict(blob)


def test_xtable_version_stamp_rejected(tmp_path):
    table = populate_table(2, 1, 0)
    path = table.save(tmp_path / "cache.json")
    blob = json.loads(path.read_text())
    blob["version"] = "xtable-v0"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        XTable.load(path)


@pytest.mark.parametrize(
    "data", [[], {"version": XTABLE_VERSION}, {"version": XTABLE_VERSION, "entries": 5}]
)
def test_xtable_malformed_document_rejected(data):
    with pytest.raises(ValueError):
        XTable.from_json_dict(data)


@pytest.mark.parametrize("coeff", ["1/0", "1/-2", "one/2", " +1_0/ 4 ", "2/4", "+1/2", "3", "0/1"])
def test_xtable_malformed_coefficient_rejected(tmp_path, coeff):
    table = populate_table(2, 1, 0)
    path = table.save(tmp_path / "cache.json")
    blob = json.loads(path.read_text())
    blob["entries"][-1]["poly"][0]["coeff"] = coeff
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError, match=re.escape(coeff)):
        XTable.load(path)


def _corrupted_table_load(tmp_path, corrupt):
    """Save a small table, corrupt its JSON in place, and load it again."""
    path = populate_table(2, 1, 0).save(tmp_path / "cache.json")
    blob = json.loads(path.read_text())
    corrupt(blob["entries"])
    path.write_text(json.dumps(blob))
    return XTable.load(path)


@pytest.mark.parametrize("key", [[[1.5, 0]], [["2", 1]], [[2, True]], [[1, 0, 0]], [1], 5, [[-1, 0]], []])
def test_xtable_malformed_key_rejected(tmp_path, key):
    def corrupt(entries):
        entries[-1]["key"] = key

    with pytest.raises(ValueError, match="table entry"):
        _corrupted_table_load(tmp_path, corrupt)


@pytest.mark.parametrize("gens", [[[-1, 0]], [[-1, 1]], [[0, 0]]])
def test_xtable_generator_out_of_range_rejected(tmp_path, gens):
    # no z_{d,r} exists with d < 0 or r < 1
    def corrupt(entries):
        entries[-1]["poly"][0]["gens"] = gens

    with pytest.raises(ValueError, match="table entry .* malformed polynomial"):
        _corrupted_table_load(tmp_path, corrupt)


def test_xtable_repeated_key_rejected(tmp_path):
    def corrupt(entries):
        entries.append(dict(entries[0]))

    with pytest.raises(ValueError, match="repeats the key"):
        _corrupted_table_load(tmp_path, corrupt)


@pytest.mark.parametrize("poly", [{}, "", 5, None], ids=["object", "string", "int", "null"])
def test_xtable_malformed_polynomial_rejected(tmp_path, poly):
    # [] is the zero polynomial; nothing else that is not a list is one
    def corrupt(entries):
        entries[-1]["poly"] = poly

    with pytest.raises(ValueError, match="table entry .* malformed polynomial"):
        _corrupted_table_load(tmp_path, corrupt)


@pytest.mark.parametrize("field", ["key", "poly"])
def test_xtable_missing_field_rejected(tmp_path, field):
    def corrupt(entries):
        del entries[-1][field]

    with pytest.raises(ValueError, match="is malformed"):
        _corrupted_table_load(tmp_path, corrupt)


def _h_poly_on_fraction_reference(monkeypatch, lams):
    """h_poly for each lam with the recursion running on the Fraction-valued
    reference ring instead of ZPoly, one table for all."""
    with monkeypatch.context() as patch:
        patch.setattr(recursion, "ZPoly", _FractionZPoly)
        table = XTable()
        return {lam: h_poly(lam, table) for lam in lams}


@pytest.mark.parametrize("lam", [(16,), (2, 2, 2, 2, 2, 2), (4, 3, 3, 2)])
def test_h_poly_matches_fraction_reference(monkeypatch, lam):
    reference = _h_poly_on_fraction_reference(monkeypatch, [lam])[lam]
    assert isinstance(reference, _FractionZPoly)
    assert h_poly(lam).terms == reference.terms


def test_golden_polynomials_match_fraction_reference(monkeypatch):
    reference = _h_poly_on_fraction_reference(monkeypatch, list(GOLDEN_H_POLYS))
    table = XTable()
    for lam, expected in GOLDEN_H_POLYS.items():
        assert h_poly(lam, table).terms == reference[lam].terms == expected.terms, lam


def _naive_correction(s, m, rest, table):
    """The correction sum term by term: labelled consumed masks, labelled
    assignments of the others to ordered blocks, and compositions."""
    total = ZPoly()
    n = len(rest)
    for mask in range(1 << n):
        consumed = [rest[i] for i in range(n) if mask >> i & 1]
        others = [rest[i] for i in range(n) if not mask >> i & 1]
        nu_a = sum(p[1] for p in consumed)
        ell = m + nu_a - len(consumed) + 2
        if ell < 1:
            continue
        a = s + sum(p[0] for p in consumed)
        if a < ell:
            continue
        weight = Fraction(multinomial((m, *(p[1] for p in consumed))), factorial(ell))
        inner = ZPoly()
        for blocks in itertools.product(range(ell), repeat=len(others)):
            groups = [[] for _ in range(ell)]
            for entry, b in zip(others, blocks):
                groups[b].append(entry)
            for sigma in compositions(a, ell):
                prod = ZPoly.constant(1)
                for s_i, group in zip(sigma, groups):
                    prod = prod * compute_x(make_xkey(group + [(s_i, 0)]), table) * s_i
                inner = inner + prod
        total = total + inner * weight
    return total


CORRECTION_RESTS = [
    ((2, 0), (2, 0), (1, 1), (0, 2)),
    ((1, 0), (1, 0), (1, 0)),
    ((1, 1), (0, 1), (0, 1), (0, 0)),
    ((3, 1), (0, 0), (0, 0)),
    (),
]


@pytest.mark.parametrize("rest", CORRECTION_RESTS)
def test_correction_matches_term_by_term_sum(rest):
    table = XTable()
    for s in (0, 1, 2):
        for m in (0, 1, 2):
            fast = ZPoly.combine(_correction(s, m, rest, table))
            assert fast == _naive_correction(s, m, rest, table), (s, m)


def test_term_by_term_sum_builds_the_same_table(monkeypatch):
    fast = XTable()
    h_poly((4, 2, 2), fast)
    naive_calls = []

    def naive_terms(s, m, rest, table):
        naive_calls.append((s, m, rest))
        return [(1, _naive_correction(s, m, rest, table), None)]

    monkeypatch.setattr(recursion, "_correction", naive_terms)
    slow = XTable()
    h_poly((4, 2, 2), slow)
    assert naive_calls  # every rewrite took its correction from the naive sum
    assert slow.entries.keys() == fast.entries.keys()
    assert slow.entries == fast.entries


@pytest.mark.parametrize("rest", CORRECTION_RESTS + [((3, 1), (2, 0), (2, 0), (1, 1), (0, 2), (0, 2))])
def test_consumed_types_rows_count_the_labelled_sub_multisets(rest):
    # every labelled sub-multiset A of rest, by the row it belongs to
    want = Counter()
    for size in range(len(rest) + 1):
        for chosen in itertools.combinations(range(len(rest)), size):
            consumed = [rest[i] for i in chosen]
            left = Counter(rest) - Counter(consumed)
            others_types = tuple(pair for pair in Counter(rest) if left[pair])
            want[(
                sum(nu for _, nu in consumed),
                size,
                sum(lam for lam, _ in consumed),
                prod(factorial(nu) for _, nu in consumed),
                others_types,
                tuple(left[pair] for pair in others_types),
            )] += 1
    rows = _consumed_types(rest)
    assert len(rows) == prod(n + 1 for n in Counter(rest).values())
    got = Counter()
    for nu_a, size_a, lam_a, nu_fact, labelled, others_types, others in rows:
        got[(nu_a, size_a, lam_a, nu_fact, others_types, others)] += labelled
    assert got == want


def _fraction_block_product(types, c, j, t, table):
    """G_j(c, t) = [u^t y^c] F^j, F = sum over t' >= 1 and c' of
    t' x_{(t',0) u c'} u^t' y^c' / c'!, by the ring's own + and *."""
    def g1(c, t):
        group = [pair for pair, c_i in zip(types, c) for _ in range(c_i)]
        return compute_x(group + [(t, 0)], table) * Fraction(t, prod(map(factorial, c)))

    if j == 1:
        return g1(c, t)
    total = ZPoly()
    for head in itertools.product(*(range(n + 1) for n in c)):
        tail = tuple(c_i - h_i for c_i, h_i in zip(c, head))
        for t_head in range(1, t - j + 2):
            total = total + g1(head, t_head) * _fraction_block_product(types, tail, j - 1, t - t_head, table)
    return total


@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_integer_block_product_is_c_factorial_times_the_fraction_form(j):
    types = ((1, 0), (0, 1))
    table = XTable()
    for others in ((2, 1), (1, 2), (0, 3)):
        for a in range(j, j + 3):
            scalar, poly = _block_product(types, others, j, a, table)
            assert type(scalar) is int
            want = _fraction_block_product(types, others, j, a, table) * prod(map(factorial, others))
            assert poly * scalar == want, (others, a)


def test_block_memo_stays_out_of_the_table(tmp_path):
    table = XTable()
    h_poly((3, 2, 2), table)
    key = make_xkey([(2, 1), (2, 0), (1, 1), (0, 2)])
    pivoted = [compute_x(key, table, pivot_index=i) for i in range(3)]
    canonical = compute_x(key, table)
    assert table.block_memo  # the memo was used
    assert set(table.to_json_dict()) == {"version", "entries"}
    assert len(table) == len(table.entries)
    again = XTable.load(table.save(tmp_path / "cache.json"))
    assert again.entries == table.entries
    assert not again.block_memo
    for value in pivoted:
        diff = value - canonical
        assert not diff or zpoly_eval(diff, 10).is_zero()


def _key_digest(table: XTable) -> tuple:
    keys = sorted(table.entries)
    return len(keys), hashlib.sha256(repr(keys).encode()).hexdigest()


def test_table_key_sets_are_the_recorded_ones():
    # _block_product returns a memoized product before touching its factors
    # again; they were stored when it was built, so the key sets stay the
    # ones recorded before that shortcut
    assert _key_digest(populate_table(6, 3, 2)) == (
        673, "f49a2c86305207da3af01d59aeb7ffd1b33d1ba03250a279028bf86145be1f7c"
    )
    table = XTable()
    h_poly((2,) * 6, table)
    assert _key_digest(table) == (
        704, "b7afa9bd22545b01bcb09a425c33bac4af58eab959a1e095595f4e1d136a9add"
    )
