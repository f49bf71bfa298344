import io
import json

import pytest

from doublehurwitz import cli, verify
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
    rows = verify.suite_string_dilaton()
    assert [ok for _, ok, _ in rows] == [i != failing for i in range(2)]
    assert [detail for _, _, detail in rows] == [
        str([bad]) if i == failing else "" for i in range(2)]
    # the CLI prints the failing row as fail, in both formats, and exits 1
    statuses = ["fail" if i == failing else "pass" for i in range(2)]
    out = io.StringIO()
    assert cli.run(["verify", "--suite", "string-dilaton"], out, io.StringIO()) == 1
    lines = out.getvalue().splitlines()
    assert [line[:4] for line in lines[:2]] == statuses
    assert lines[2] == "string-dilaton: 1/2 checks passed"
    out = io.StringIO()
    assert cli.run(["verify", "--suite", "string-dilaton", "--format", "json"], out, io.StringIO()) == 1
    doc = json.loads(out.getvalue())
    assert doc["suite"] == "string-dilaton"
    assert [check["status"] for check in doc["checks"]] == statuses
