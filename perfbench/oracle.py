"""Expected report statuses, derived from the stated conditions alone.

Nothing here imports qgordon.  The benchmark enumerates each workload's grid
itself and transcribes the applicability conditions:

* `gf-match` and `identities`, regular flavor: apply when d | 2(a+s) and
  d | 2(k+1); `identities` with s != 0 also needs 2(a+s) != 2k+2+d;
* over flavor: both apply when d is 1 or 2;
* `recurrences`, `gf-consistency`, `summand-eqs` and `product-eval` always
  apply;
* the escape family {over, d = 2, s = 1, a = k} fails `gf-match` and
  `identities`; every other applicable report passes, and so does `closure`.

Each report is one operation.  It fails when it is missing, duplicated,
unexpected, at another truncation than asked, or its status differs from the
derived one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

CHECK_IDS = (
    "recurrences",
    "gf-consistency",
    "summand-eqs",
    "gf-match",
    "product-eval",
    "identities",
)
REGULAR, OVER = "regular", "over"
TUPLE_CHECKS = ("recurrences", "gf-consistency", "gf-match", "product-eval", "identities")


@dataclass(frozen=True)
class Grid:
    """What one CLI invocation sweeps (all valid a and s for each k, d)."""

    checks: tuple
    ks: tuple
    ds: tuple
    flavors: tuple
    trunc_n: int
    trunc_x: int

    def tuples(self):
        """Every (k, a, d, s, flavor) with 1 <= d <= k, 0 <= s < d, 1 <= a <= k."""
        for flavor in self.flavors:
            for k in self.ks:
                for d in self.ds:
                    if d > k:
                        continue
                    for s in range(d):
                        for a in range(1, k + 1):
                            yield k, a, d, s, flavor


def identification_applies(k, a, d, s, flavor) -> bool:
    if flavor == REGULAR:
        return (2 * (a + s)) % d == 0 and (2 * (k + 1)) % d == 0
    return d in (1, 2)


def identities_apply(k, a, d, s, flavor) -> bool:
    if not identification_applies(k, a, d, s, flavor):
        return False
    return flavor != REGULAR or s == 0 or 2 * (a + s) != 2 * k + 2 + d


def is_escape(k, a, d, s, flavor) -> bool:
    return flavor == OVER and d == 2 and s == 1 and a == k


def expected_reports(grid: Grid) -> dict:
    """{(check_id, k, a, d, s, flavor): status} for one CLI run."""
    expected = {}
    summand_seen = set()
    for k, a, d, s, flavor in grid.tuples():
        for check in grid.checks:
            if check == "summand-eqs":
                if (k, d, flavor) not in summand_seen:
                    summand_seen.add((k, d, flavor))
                    expected[(check, k, None, d, None, flavor)] = "pass"
                continue
            status = "pass"
            if check == "gf-match" and not identification_applies(k, a, d, s, flavor):
                status = "skipped"
            elif check == "identities" and not identities_apply(k, a, d, s, flavor):
                status = "skipped"
            elif check in ("gf-match", "identities") and is_escape(k, a, d, s, flavor):
                status = "fail"
            expected[(check, k, a, d, s, flavor)] = status
    if "gf-match" in grid.checks and "identities" in grid.checks:
        expected[("closure", None, None, None, None, None)] = "pass"
    return expected


def expected_exit_code(grid: Grid) -> int:
    return 1 if "fail" in expected_reports(grid).values() else 0


def report_key(report: dict) -> tuple:
    p = report.get("params") or {}
    return (
        report.get("check_id"),
        p.get("k"),
        p.get("a"),
        p.get("d"),
        p.get("s"),
        p.get("flavor"),
    )


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list


def check_reports(grid: Grid, reports: list) -> Verdict:
    """Compare one run's reports with the derived expectation."""
    expected = expected_reports(grid)
    seen = set()
    problems = []
    for report in reports:
        key = report_key(report)
        status = report.get("status")
        if key not in expected:
            problems.append(f"unexpected report {key}")
        elif key in seen:
            problems.append(f"duplicate report {key}")
        elif status != expected[key]:
            problems.append(f"{key}: status {status!r}, expected {expected[key]!r}")
        elif key[0] in TUPLE_CHECKS and report["params"].get("trunc_order") != grid.trunc_n:
            problems.append(f"{key}: trunc_order {report['params'].get('trunc_order')}")
        seen.add(key)
    missing = [key for key in expected if key not in seen]
    problems += [f"missing report {key}" for key in missing]
    unexpected = sum(1 for key in seen if key not in expected)
    unexpected += len(reports) - len(seen)  # duplicates
    return Verdict(len(expected) + unexpected, len(problems), problems)


def canonical_json(reports: list) -> str:
    """The report without runtime fields, as reports_to_json(..., False) writes it."""
    return json.dumps(
        [{k: v for k, v in r.items() if k != "runtime_ms"} for r in reports], indent=2
    )
