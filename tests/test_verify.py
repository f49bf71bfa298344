import pytest

from doublehurwitz import verify
from doublehurwitz.zseries import ZPoly


@pytest.mark.parametrize("failing, planted", [(0, "string_identity_sides"), (1, "dilaton_identity_sides")])
def test_string_dilaton_suite_reports_planted_unequal_sides(monkeypatch, failing, planted):
    # both identities' sides are equal, except one planted pair on one key
    keys = verify.keys_up_to(
        verify.STRING_DILATON_MAX_LAM_WEIGHT,
        verify.STRING_DILATON_MAX_R,
        verify.STRING_DILATON_MAX_NU_WEIGHT,
    )
    bad = keys[len(keys) // 2]

    def sides_of(name):
        def sides(rest, table):
            return ZPoly({(): 1}), ZPoly({(): 2 if name == planted and rest == bad else 1})
        return sides

    for name in ("string_identity_sides", "dilaton_identity_sides"):
        monkeypatch.setattr(verify, name, sides_of(name))
    report = verify.suite_string_dilaton()
    assert not report.ok
    assert [ok for _, ok, _ in report.checks] == [i != failing for i in range(2)]
    assert [detail for _, _, detail in report.checks] == [
        str([bad]) if i == failing else "" for i in range(2)]
    assert report.to_json_dict()["checks"][failing]["status"] == "fail"
