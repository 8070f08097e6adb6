"""The lemma contract: records for what a replay decides, exceptions for what stops it.

Every conditional lemma lists its hypotheses as `HypothesisRecord`s in its
report's `hypotheses` field, each reading "holds", "fails" or "unchecked". An
unmet hypothesis never raises: the report is returned and describes the run,
and the CLI exits 2 on a record that reads "fails". A conditional claim raises
`FalsifiedError` (exit 3) only through `conclude`, when no record fails and the
claim does not hold. Bad input raises `ValueError`, `GroupValidationError` or
`CapExceededError` (exit 1) before any report exists.
"""

from __future__ import annotations

from typing import NamedTuple


class GroupValidationError(ValueError):
    """A declarative group spec or raw table failed structural validation."""


class CapExceededError(ValueError):
    """An enumeration guard (subgroup cap, span guard, table size) was hit."""


class FalsifiedError(AssertionError):
    """An exactly-verifiable claim failed on a run whose hypotheses held.

    Maps to CLI exit code 3.  Carries the offending report when available.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class HypothesisRecord(NamedTuple):
    name: str
    status: str           # "holds" | "fails" | "unchecked"
    detail: str = ""

    @classmethod
    def of(cls, name: str, holds: bool, detail: str = "") -> "HypothesisRecord":
        return cls(name, "holds" if holds else "fails", detail)


class StageCheck(NamedTuple):
    name: str
    lhs_size: int
    rhs_size: int
    ok: bool

    @classmethod
    def of(cls, name: str, lhs, rhs) -> "StageCheck":
        """The check that the set lhs lies inside the set rhs."""
        return cls(name, len(lhs), len(rhs), lhs.is_subset_of(rhs))


def conclude(report, claim_holds: bool, message: str):
    """Return the report, or raise FalsifiedError(message, report) when the
    claim fails and no record of `report.hypotheses` reads "fails" ("unchecked"
    counts as holding)."""
    if not claim_holds and all(r.status != "fails" for r in report.hypotheses):
        raise FalsifiedError(message, report)
    return report
