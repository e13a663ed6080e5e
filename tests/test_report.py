"""Report data model: validation, canonical JSON, and diffing."""

import json

import pytest

from versaldef.report import (
    Check,
    FAIL,
    PASS,
    Report,
    SKIPPED_BUDGET,
    compare_reports,
    engine_config,
)


def _check(cid, status=PASS, details="", ms=0):
    return Check(id=cid, anchor="phi-symmetry", status=status, details=details, ms=ms)


def _report(suite, checks):
    return Report(suite=suite, n_range=(4, 5), engine=engine_config(), checks=tuple(checks))


def test_check_validation():
    with pytest.raises(ValueError):
        Check(id="x", anchor="phi-symmetry", status="MAYBE")
    with pytest.raises(ValueError):
        Check(id="x", anchor="", status=PASS)


def test_check_timing_stripped_by_default():
    c = _check("x", ms=123)
    assert c.to_json_dict()["ms"] == 0
    assert c.to_json_dict(include_timing=True)["ms"] == 123


def test_summary_and_ok():
    rep = _report("identities", [_check("a"), _check("b", FAIL), _check("c", SKIPPED_BUDGET)])
    assert rep.summary == {"pass": 1, "fail": 1, "skipped": 1}
    assert not rep.ok
    assert _report("identities", [_check("a"), _check("c", SKIPPED_BUDGET)]).ok


def test_json_roundtrip():
    rep = _report("identities", [_check("a", details="fine", ms=7), _check("b", FAIL)])
    text = rep.to_json()
    assert text.endswith("\n")
    again = Report.from_json(text)
    assert again.suite == rep.suite
    assert again.n_range == rep.n_range
    # ms was canonicalized away, everything else survives
    assert [(c.id, c.status, c.details) for c in again.checks] == [
        (c.id, c.status, c.details) for c in rep.checks
    ]
    assert all(c.ms == 0 for c in again.checks)


def test_json_is_canonical():
    rep = _report("identities", [_check("a", ms=3)])
    parsed = json.loads(rep.to_json())
    assert list(parsed) == sorted(parsed)
    assert rep.to_json() == _report("identities", [_check("a", ms=99)]).to_json()


def test_compare_reports_changes():
    old = _report("identities", [_check("a"), _check("b", FAIL), _check("c"), _check("gone")])
    new = _report("identities", [_check("a", FAIL), _check("b"), _check("c"), _check("fresh")])
    cmp = compare_reports(old, new)
    assert set(cmp.changed) == {("a", PASS, FAIL), ("b", FAIL, PASS)}
    assert cmp.regressions == (("a", PASS, FAIL),)
    assert cmp.improvements == (("b", FAIL, PASS),)
    assert cmp.has_regression
    assert cmp.added == ("fresh",)
    assert cmp.removed == ("gone",)


def test_compare_reports_skip_counts_as_regression():
    old = _report("identities", [_check("a")])
    new = _report("identities", [_check("a", SKIPPED_BUDGET)])
    assert compare_reports(old, new).has_regression


def test_compare_reports_counts_a_missing_passing_check_as_regression():
    old = _report("identities", [_check("a"), _check("gone"), _check("failed", FAIL)])
    new = _report("identities", [_check("a")])
    cmp = compare_reports(old, new)
    assert cmp.changed == () and cmp.regressions == ()
    assert cmp.removed == ("gone", "failed")
    assert cmp.lost == ("gone",)
    assert cmp.has_regression
    # a check that did not pass may go missing without a regression
    assert not compare_reports(_report("identities", [_check("failed", FAIL)]), new).has_regression


def test_compare_reports_rejects_different_suites():
    with pytest.raises(ValueError):
        compare_reports(_report("identities", []), _report("counts", []))


def test_engine_config_records_budget_and_seed():
    from versaldef.groebner import Budget

    cfg = engine_config(Budget(max_pairs=10, max_terms=20), seed=5)
    assert cfg["budgets"] == {"spairs": 10, "terms": 20}
    assert cfg["seed"] == 5
    assert cfg["order"] == "degrevlex"
