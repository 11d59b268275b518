"""Machine-readable verification reports with pass/fail/discrepancy status.

`discrepancy` is reserved for stable computed values that differ from a
transcribed published table: the computed value is never overwritten,
the disagreement is surfaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"

#: provenance tags for expected values
PUBLISHED = "published-table"
DERIVED = "derived-oracle"


@dataclass
class ReportRow:
    input: str
    computed: object
    expected: object
    source: str  # PUBLISHED or DERIVED
    ok: bool


@dataclass
class VerificationReport:
    claim: str
    rows: list[ReportRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: rows whose failure is a table discrepancy rather than a broken identity
    discrepancy_rows: list[ReportRow] = field(default_factory=list)

    def check(self, input_desc: str, computed, expected, source: str) -> bool:
        ok = computed == expected
        self.rows.append(ReportRow(input_desc, computed, expected, source, ok))
        return ok

    def compare_published(self, input_desc: str, computed, expected) -> bool:
        """Published-table comparison: a mismatch is a discrepancy, not a failure."""
        ok = computed == expected
        row = ReportRow(input_desc, computed, expected, PUBLISHED, ok)
        if ok:
            self.rows.append(row)
        else:
            self.discrepancy_rows.append(row)
        return ok

    @property
    def status(self) -> str:
        if any(not r.ok for r in self.rows):
            return FAIL
        if self.discrepancy_rows:
            return DISCREPANCY
        return PASS

    def to_jsonable(self) -> dict:
        def row_json(r: ReportRow) -> dict:
            return {
                "input": r.input,
                "computed": _plain(r.computed),
                "expected": _plain(r.expected),
                "source": r.source,
                "ok": r.ok,
            }

        return {
            "claim": self.claim,
            "status": self.status,
            "rows": [row_json(r) for r in self.rows],
            "discrepancies": [row_json(r) for r in self.discrepancy_rows],
            "notes": list(self.notes),
        }


def _plain(value):
    if isinstance(value, (int, str, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def suite_exit_code(reports) -> int:
    """0 = all pass; 1 = any fail; 2 = discrepancy-only."""
    statuses = {r.status for r in reports}
    if FAIL in statuses:
        return 1
    if DISCREPANCY in statuses:
        return 2
    return 0


def reports_to_json(reports) -> str:
    payload = {
        "reports": [r.to_jsonable() for r in reports],
        "exit_code": suite_exit_code(reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_report_text(report: VerificationReport) -> str:
    lines = [f"[{report.status.upper()}] {report.claim}"]
    for r in report.rows:
        mark = "ok " if r.ok else "FAIL"
        lines.append(f"  {mark} {r.input}: computed={r.computed} expected={r.expected} ({r.source})")
    for r in report.discrepancy_rows:
        lines.append(
            f"  DISC {r.input}: computed={r.computed} transcribed={r.expected} ({r.source})"
        )
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)
