"""Verification reports: structured check results with a canonical
JSON form, so runs are diffable and regressions are machine-detectable.

A report is deterministic for a fixed configuration.  Timings are kept
out of the canonical serialization (zeroed unless explicitly included)
so that two runs of the same suite produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .groebner import Budget, DEFAULT_BUDGET

PASS = "PASS"
FAIL = "FAIL"
SKIPPED_BUDGET = "SKIPPED_BUDGET"

_STATUSES = (PASS, FAIL, SKIPPED_BUDGET)

__all__ = [
    "PASS",
    "FAIL",
    "SKIPPED_BUDGET",
    "Check",
    "Report",
    "ReportComparison",
    "engine_config",
    "compare_reports",
]


@dataclass(frozen=True)
class Check:
    """One verified claim: a stable id, the anchor naming the claim in
    the claim registry, the outcome, and human-readable details (which
    carry the counterexample on failure)."""

    id: str
    anchor: str
    status: str
    details: str = ""
    ms: int = 0

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if not self.anchor:
            raise ValueError(f"check {self.id!r} has an empty anchor")

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "details": self.details,
            "ms": self.ms if include_timing else 0,
        }


def engine_config(budget: Budget = DEFAULT_BUDGET, seed=None) -> dict:
    from . import __version__

    return {
        "order": "degrevlex",
        "budgets": {"spairs": budget.max_pairs, "terms": budget.max_terms},
        "seed": seed,
        "version": __version__,
    }


@dataclass(frozen=True)
class Report:
    suite: str
    n_range: Tuple[int, int]
    engine: dict
    checks: tuple

    @property
    def summary(self) -> dict:
        return {
            "pass": sum(1 for c in self.checks if c.status == PASS),
            "fail": sum(1 for c in self.checks if c.status == FAIL),
            "skipped": sum(1 for c in self.checks if c.status == SKIPPED_BUDGET),
        }

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def to_json_dict(self, include_timing: bool = False) -> dict:
        return {
            "suite": self.suite,
            "n_range": list(self.n_range),
            "engine": self.engine,
            "checks": [c.to_json_dict(include_timing) for c in self.checks],
            "summary": self.summary,
        }

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(
            self.to_json_dict(include_timing),
            indent=2,
            sort_keys=True,
        ) + "\n"

    @staticmethod
    def from_json_dict(d: dict) -> "Report":
        checks = tuple(
            Check(
                id=c["id"],
                anchor=c["anchor"],
                status=c["status"],
                details=c.get("details", ""),
                ms=c.get("ms", 0),
            )
            for c in d["checks"]
        )
        return Report(
            suite=d["suite"],
            n_range=tuple(d["n_range"]),
            engine=d["engine"],
            checks=checks,
        )

    @staticmethod
    def from_json(text: str) -> "Report":
        return Report.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class ReportComparison:
    """Status changes between two runs of the same suite.  A check that
    went from PASS to anything else is a regression; one that went from
    non-PASS to PASS is an improvement.  ``lost`` holds the removed
    checks that passed in the old run; each also counts against the new
    run in ``has_regression``."""

    suite: str
    changed: tuple
    added: tuple
    removed: tuple
    lost: tuple

    @property
    def regressions(self) -> tuple:
        return tuple(t for t in self.changed if t[1] == PASS and t[2] != PASS)

    @property
    def improvements(self) -> tuple:
        return tuple(t for t in self.changed if t[1] != PASS and t[2] == PASS)

    @property
    def has_regression(self) -> bool:
        return bool(self.regressions or self.lost)


def compare_reports(old: Report, new: Report) -> ReportComparison:
    if old.suite != new.suite:
        raise ValueError(
            f"cannot compare different suites: {old.suite!r} vs {new.suite!r}"
        )
    old_by_id = {c.id: c for c in old.checks}
    new_by_id = {c.id: c for c in new.checks}
    changed = tuple(
        (cid, old_by_id[cid].status, new_by_id[cid].status)
        for cid in old_by_id
        if cid in new_by_id and old_by_id[cid].status != new_by_id[cid].status
    )
    added = tuple(cid for cid in new_by_id if cid not in old_by_id)
    removed = tuple(cid for cid in old_by_id if cid not in new_by_id)
    lost = tuple(cid for cid in removed if old_by_id[cid].status == PASS)
    return ReportComparison(
        suite=old.suite, changed=changed, added=added, removed=removed, lost=lost
    )
