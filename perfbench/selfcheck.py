"""Self-check of the benchmark's oracle and reference code; runs in seconds.

    python3 perfbench/selfcheck.py

1. Runs the CLI on a tiny grid (with skipped tuples and the escape family)
   and requires the oracle to accept every report and the exit code.
2. Flips a status, drops, duplicates and alters reports, and requires the
   oracle to reject each tampered report; alters the reference counts and
   requires the spot checks to reject them.
3. Requires the canonical form the benchmark compares to equal
   reports_to_json(..., include_runtime=False).
4. Requires the reference brute force to equal the reference products for
   every s = 0 Gordon / Bressoud / Lovejoy case at small n: the reference is
   checked against the theorems, not against the library.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import oracle
import reference
import run
from oracle import OVER, REGULAR, Grid
from run import OUT, ROOT, launch

TINY = Grid(oracle.CHECK_IDS, (2, 3), (2, 3), (REGULAR, OVER), 8, 3)
TINY_ARGV = ["--k", "2..3", "--d", "2..3", "--trunc-n", "8", "--trunc-x", "3"]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    out_path = OUT / "selfcheck-report.json"
    cli_run = launch(["-m", "qgordon.cli", *TINY_ARGV, "--out", str(out_path)],
                     time.perf_counter() + 120)
    reports = json.loads(out_path.read_text())
    verdict = oracle.check_reports(TINY, reports)
    statuses = {r["status"] for r in reports}
    expect(statuses == {"pass", "fail", "skipped"}, "tiny grid has pass, fail and skipped reports")
    expect(verdict.failed == 0, f"oracle accepts the tiny grid ({verdict.problems[:3]})")
    expect(cli_run.code == oracle.expected_exit_code(TINY) == 1, "exit code 1 with escape tuples")

    def tampered(change) -> int:
        mutated = copy.deepcopy(reports)
        change(mutated)
        return oracle.check_reports(TINY, mutated).failed

    def first(status):
        return next(i for i, r in enumerate(reports) if r["status"] == status)

    def set_status(index, status):
        def change(rs):
            rs[index]["status"] = status
        return change

    expect(tampered(set_status(first("pass"), "fail")) == 1, "rejects pass flipped to fail")
    expect(tampered(set_status(first("fail"), "pass")) == 1, "rejects fail flipped to pass")
    expect(tampered(set_status(first("skipped"), "pass")) == 1, "rejects skipped flipped to pass")
    expect(tampered(lambda rs: rs.pop(0)) == 1, "rejects a missing report")
    expect(tampered(lambda rs: rs.append(rs[0])) == 1, "rejects a duplicate report")
    expect(
        tampered(lambda rs: rs[0]["params"].update(k=9)) == 2,
        "rejects a report for a tuple outside the grid",
    )

    sys.path.insert(0, str(ROOT / "src"))
    from qgordon.harness import SuiteConfig, reports_to_json, run_suite

    library = run_suite(SuiteConfig(checks=("identities",), ks=(2,), ds=(1, 2), trunc_order=8))
    expect(
        oracle.canonical_json(json.loads(reports_to_json(library)))
        == reports_to_json(library, include_runtime=False),
        "canonical form equals reports_to_json(..., include_runtime=False)",
    )

    deadline = time.perf_counter() + 120
    expect(not run.spot_checks("cli-default", 7, deadline), "spot checks agree with the library")
    honest = reference.membership_count
    reference.membership_count = lambda *args: honest(*args) + 1
    try:
        wrong = run.spot_checks("cli-default", 7, deadline)
    finally:
        reference.membership_count = honest
    expect(len(wrong) == 9, "spot checks reject 9 altered brute-force counts")

    mismatched = []
    for flavor in (REGULAR, OVER):
        for k in (2, 3, 4):
            for d in (1, 2):
                for a in range(1, k + 1):
                    if flavor == REGULAR and 2 * a == 2 * k + 2 - d:
                        continue
                    product = reference.product_coefficients(k, a, d, flavor, 10)
                    brute = [reference.membership_count(k, a, d, 0, flavor, n) for n in range(11)]
                    if product != brute:
                        mismatched.append((k, a, d, flavor))
    expect(not mismatched, f"reference brute force equals reference products {mismatched}")

    print(f"selfcheck: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
