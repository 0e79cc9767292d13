"""Batch verification driver: runs every check family over parameter grids
and emits machine-readable reports.

Check families (referenced by these ids on the command line and in reports):

* recurrences     - the counter recurrences, both sides enumerated
* gf-consistency  - functional-equation route vs enumeration route
* summand-eqs     - the eight alpha/beta recurrence displays
* gf-match        - constructed series vs enumerative generating function
* product-eval    - x = 1 specialization vs triple-product combinations
* identities      - the main counter identities: plain equality (s = 0) and
                    the three companion arms (d <, =, > a+s)
* closure         - synthetic summary: gf-match pass must imply identities pass

A report is pass/fail/skipped; a skip always carries the violated
applicability condition, and a fail always carries the first mismatching
coefficient.  Identical configurations produce byte-identical canonical JSON
(runtime fields are excluded from the canonical form).

run_suite runs the grid group by group, one (flavor, k, d) at a time, and
each configured check over the group's tuples.  It can hand every report to
a callback as soon as it is computed, in that run order; the list it returns
is sorted into the canonical order, with closure appended last.  Every memo
keyed by a group lives until that group's reports are done (_end_group).
run_suite also takes each report's runtime_ms, once, around the driver call
that makes it (skipped reports included), in whole milliseconds rounded
down.  The drivers read no clock, so a driver called directly reports 0,
and so does closure.
Every record the drivers read or make is a NamedTuple, built once: the
reports and the configuration here, and gseries' SummandSweep, DisplayCheck
and XOneCheck.  Each is immutable and equal to the plain tuple of its
fields, and importing the package needs no dataclasses.

Each check loads only the layers it uses.  Importing this module loads
counting (with _packing and config) and nothing else, which is all that
recurrences and identities need; series comes in only when an identities
group reaches a product-defined congruence counter (2c = M, regular
flavor).  gf-consistency, summand-eqs, gf-match and product-eval, and the
CSV export, import gseries (and so series) when they first run, and look up
its functions on the module at each call.  json is imported by
reports_to_json.
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from . import counting
# ConfigError and _grid are not used here: they are kept importable from harness
from .config import CHECK_IDS, OVER, REGULAR, ConfigError, SuiteConfig, _groups, _grid
from .counting import CountParams


class _ReportFields(NamedTuple):
    check_id: str
    params: dict
    status: str  # "pass" | "fail" | "skipped"
    reason: Optional[str]
    first_mismatch: Optional[dict]  # {"m", "n", "lhs", "rhs"}
    notes: tuple
    runtime_ms: int


class CheckReport(_ReportFields):
    """Outcome of one verification run (the CLI output contract)."""

    __slots__ = ()

    def __new__(
        cls,
        check_id: str,
        params: dict,
        status: str,
        reason: Optional[str] = None,
        first_mismatch: Optional[dict] = None,
        notes: tuple = (),
        runtime_ms: int = 0,
    ):
        if status == "fail" and first_mismatch is None:
            raise ValueError("fail reports must carry their first mismatch")
        if status == "skipped" and not reason:
            raise ValueError("skipped reports must carry a reason")
        return super().__new__(
            cls, check_id, params, status, reason, first_mismatch, notes, runtime_ms
        )

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    def to_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "check_id": self.check_id,
            "params": self.params,
            "status": self.status,
            "reason": self.reason,
            "first_mismatch": self.first_mismatch,
            "notes": list(self.notes),
        }
        if include_runtime:
            out["runtime_ms"] = self.runtime_ms
        return out


def _sort_key(report: CheckReport):
    p = report.params
    return (
        report.check_id,
        p.get("flavor", ""),
        p.get("k", 0),
        p.get("d", 0),
        p.get("s", -1) if p.get("s") is not None else -1,
        p.get("a", -1) if p.get("a") is not None else -1,
    )


def _mismatch(m, n, lhs, rhs) -> dict:
    return {"m": m, "n": n, "lhs": str(lhs), "rhs": str(rhs)}


def _verdict(check_id, params, diff, notes=()) -> CheckReport:
    """A pass report if diff is None, else a fail at diff = (m, n, lhs, rhs)."""
    if diff is None:
        return CheckReport(check_id, params, "pass", notes=tuple(notes))
    return CheckReport(
        check_id, params, "fail", first_mismatch=_mismatch(*diff), notes=tuple(notes)
    )


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_recurrences(cp: CountParams, m_max: int, n_max: int) -> CheckReport:
    """Counter recurrence over a (parts, weight) box, both sides enumerated."""
    params = _tuple_params(cp.k, cp.a, cp.d, cp.s, cp.flavor, None, n_max)
    outcome = counting.verify_recurrence(cp, m_max, n_max)
    notes = ("negative lower index extended by zero",) if outcome.extension_used else ()
    return _verdict("recurrences", params, outcome.first_mismatch, notes)


def check_gf_consistency(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """Functional-equation route against the enumeration route (always applies)."""
    from . import gseries

    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)
    rec = gseries.recurrence_gf(k, a, d, s, flavor, x_order, trunc_order)
    enum = gseries.enumerated_gf(k, a, d, s, flavor, x_order, trunc_order)
    return _verdict("gf-consistency", params, rec.first_difference(enum))


def check_summand_equations(k, d, flavor, n_max, x_order) -> CheckReport:
    """All summand recurrence displays for one (k, d, flavor)."""
    from . import gseries

    sweep = gseries.verify_summand_recurrences(k, d, flavor, n_max, x_order)
    params = {
        "k": k,
        "a": None,
        "d": d,
        "s": None,
        "flavor": flavor,
        "x_order": sweep.x_order,
        "trunc_order": sweep.trunc_order,
        "n_max": n_max,
    }
    notes = [f"instances checked: {sweep.instances}"]
    if flavor == OVER:
        notes.append(
            "final display printed variant holds"
            if sweep.suspect_printed_ok
            else "final display printed variant fails; corrected (q^-n base) variant holds"
        )
    if sweep.ok:
        return _verdict("summand-eqs", params, None, notes)
    first = sweep.failures[0]
    notes.append(f"first failing display: {first.display} at s={first.s} a={first.a} n={first.n}")
    return _verdict("summand-eqs", params, first.mismatch, notes)


def check_gf_match(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """Constructed series against the enumerative generating function."""
    from . import gseries

    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)
    applies, why = counting.identification_conditions(k, a, d, s, flavor)
    if not applies:
        return CheckReport("gf-match", params, "skipped", reason=why)
    notes = []
    if not counting.identification_grounded(k, a, d, s, flavor):
        notes.append(
            "functional-equation chain leaves the index range (a+s too large); "
            "identification expected to fail"
        )
    g = gseries.constructed_gf(k, a, d, s, flavor, x_order, trunc_order, require_ordinary=False)
    f = gseries.enumerated_gf(k, a, d, s, flavor, x_order, trunc_order)
    r = gseries.recurrence_gf(k, a, d, s, flavor, x_order, trunc_order)
    if not g.is_ordinary():
        notes.append("constructed series has negative q-exponents at this tuple")
    route_diff = f.first_difference(r)
    if route_diff is not None:
        notes = ["enumeration and functional-equation routes disagree"]
        return _verdict("gf-match", params, route_diff, notes)
    return _verdict("gf-match", params, g.first_difference(f), notes)


def check_product_eval(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """x = 1 specialization against every applicable product combination.

    Skipped where the provable comparison bound is negative (x_order below
    the summands' exponent deficit), since then nothing is compared.
    """
    from . import gseries

    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)
    chk = gseries.x_one_check(k, a, d, s, flavor, x_order, trunc_order)
    if chk.bound < 0:
        reason = (
            f"comparison bound q^{chk.bound} is negative: "
            f"x_order = {x_order} is below the summands' exponent deficit"
        )
        return CheckReport("product-eval", params, "skipped", reason=reason)
    notes = [
        f"comparison bound: q^{chk.bound}",
        f"forms compared: {len(chk.results)}",
    ]
    if not chk.identified:
        notes.append("non-identified tuple: bound derived from summand exponents")
    if not chk.ordinary:
        notes.append("specialization compared in Laurent space")
    for label, ok, diff in chk.results:
        if not ok:
            failing = notes + [f"failing form: {label}"]
            return _verdict("product-eval", params, (None, *diff[1:]), failing)
    return _verdict("product-eval", params, None, notes)


# ---------------------------------------------------------------------------
# the main identities
# ---------------------------------------------------------------------------


def check_main_identity(
    k, a, d, s, flavor, n_max, alt_condition: bool = False
) -> CheckReport:
    """One tuple of the main counter identities, with verbatim conditions.

    s = 0: plain equality of the congruence-side and multiplicity-side
    counters.  s != 0: the companion shape selected by comparing d with
    a + s, whose congruence side is counting._companion_terms (shifted
    argument, reflected when d > a+s) against b(n) - b(n-d).  The stated
    side condition is evaluated verbatim as 2(a+s) != 2k+2+d;
    --alt-condition switches to the exceptional-product guard
    2(a+s) != 2k+2-d.  Tuples failing any stated condition are skipped,
    never silently passed.
    """
    params = _tuple_params(k, a, d, s, flavor, None, n_max)
    notes = [f"side condition evaluated: {'corrected' if alt_condition else 'verbatim'}"]

    reason = counting.identities_skip_reason(k, a, d, s, flavor)
    if reason is not None:
        return CheckReport("identities", params, "skipped", reason=reason)
    if flavor == REGULAR and s != 0:
        guard = 2 * k + 2 - d if alt_condition else 2 * k + 2 + d
        if 2 * (a + s) == guard:
            return CheckReport(
                "identities",
                params,
                "skipped",
                reason=f"2(a+s) = {2 * (a + s)} hits the excluded value {guard}",
            )

    def side(terms):
        """The sum of sign q^e row over the (sign, e, row) terms, through q^n_max."""
        total = [0] * (n_max + 1)
        for sign, e, row in terms:
            total[e:] = [t + sign * v for t, v in zip(total[e:], row)]
        return total

    b = counting.count_mult_totals(CountParams(k, a, d, s, flavor), n_max)
    if s == 0:
        shape, lhs_terms, rhs_terms = "plain equality", [(1, 0, a)], [(1, 0, b)]
    else:
        relation = "<" if d < a + s else "=" if d == a + s else ">"
        shape = f"companion, d {relation} a+s"
        lhs_terms = counting._companion_terms(a, d, s, reflected=d > a + s)
        rhs_terms = [(1, 0, b), (-1, d, b)]
    notes.append(f"shape: {shape}")
    rows = {}
    for c in dict.fromkeys(c for _, _, c in lhs_terms):
        row, special = counting.cached_congruence_series(k, d, c, flavor, n_max)
        rows[c] = row[: n_max + 1]
        if special:
            notes.append(f"congruence counter at index {c} is product-defined (2c = modulus)")
    lhs = side((sign, e, rows[c]) for sign, e, c in lhs_terms)
    rhs = side(rhs_terms)
    for n, (left, right) in enumerate(zip(lhs, rhs)):
        if left != right:
            return _verdict("identities", params, (None, n, left, right), notes)
    return _verdict("identities", params, None, notes)


def _tuple_params(k, a, d, s, flavor, x_order, trunc_order) -> dict:
    return {
        "k": k,
        "a": a,
        "d": d,
        "s": s,
        "flavor": flavor,
        "x_order": x_order,
        "trunc_order": trunc_order,
    }


# ---------------------------------------------------------------------------
# suite orchestration (the grid and its groups are defined in config)
# ---------------------------------------------------------------------------


def _end_group() -> None:
    """Empty every memo keyed by a (k, d, flavor) group, in place: the
    registered ones (counting._GROUP_MEMOS), which no later group reads.
    The memos shared across groups are not registered and stay."""
    for memo in counting._GROUP_MEMOS:
        memo.clear()


def run_suite(
    config: SuiteConfig,
    on_report: Optional[Callable[[CheckReport], None]] = None,
    csv_dir=None,
) -> list[CheckReport]:
    """Run the configured checks and return their reports in the canonical
    order (_sort_key), with closure last.

    The grid runs group by group (_groups), and within a group each
    configured check in CHECK_IDS order over the group's tuples; summand-eqs
    makes one report per group.  Each driver call is timed here and its
    report stamped with the whole milliseconds it took.  The group-keyed
    memos are emptied when a group's reports are done.  on_report, if given,
    is called with each report as soon as it is computed, in that run order,
    and last with closure; the list returned is the same with or without it.

    With csv_dir, each tuple's counter table (counts_<stem>.csv) and
    constructed-series coefficients (series_<stem>.csv) are written there
    after its group's checks, while the group's memos are still held.
    """
    reports: list[CheckReport] = []

    def add(report: CheckReport) -> None:
        reports.append(report)
        if on_report is not None:
            on_report(report)

    X, N = config.x_order, config.trunc_order
    if csv_dir is not None:
        csv_dir = Path(csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
    drivers = {
        "recurrences": lambda *t: check_recurrences(CountParams(*t), N, N),
        "gf-consistency": lambda *t: check_gf_consistency(*t, X, N),
        "summand-eqs": lambda k, a, d, s, flavor: check_summand_equations(
            k, d, flavor, config.summand_n_max, min(X, 8)
        ),
        "gf-match": lambda *t: check_gf_match(*t, X, N),
        "product-eval": lambda *t: check_product_eval(*t, X, N),
        "identities": lambda *t: check_main_identity(*t, N, config.alt_condition),
    }
    for group in _groups(config):
        for check_id in (c for c in CHECK_IDS if c in config.checks):
            # summand-eqs makes one report per group, from its first tuple
            for t in group[:1] if check_id == "summand-eqs" else group:
                start = perf_counter()
                report = drivers[check_id](*t)
                add(report._replace(runtime_ms=int((perf_counter() - start) * 1000)))
        if csv_dir is not None:
            from . import gseries
            from .series import write_coefficients_csv

            for k, a, d, s, flavor in group:
                stem = f"k{k}_a{a}_d{d}_s{s}_{flavor}"
                with open(csv_dir / f"counts_{stem}.csv", "w", newline="") as fh:
                    counting.write_count_table_csv(fh, CountParams(k, a, d, s, flavor), N, N)
                g = gseries.constructed_gf(k, a, d, s, flavor, X, N, require_ordinary=False)
                with open(csv_dir / f"series_{stem}.csv", "w", newline="") as fh:
                    write_coefficients_csv(fh, g)
        _end_group()
    reports.sort(key=_sort_key)
    if "gf-match" in config.checks and "identities" in config.checks:
        add(closure_report(reports))
    return reports


def closure_report(reports: list[CheckReport]) -> CheckReport:
    """gf-match pass at a tuple must imply the identities check passes there."""
    match_pass = {
        _params_key(r.params)
        for r in reports
        if r.check_id == "gf-match" and r.status == "pass"
    }
    violations = [
        r
        for r in reports
        if r.check_id == "identities"
        and r.status == "fail"
        and _params_key(r.params) in match_pass
    ]
    if violations:
        p = violations[0].params
        return CheckReport(
            "closure",
            {},
            "fail",
            first_mismatch=_mismatch(
                None,
                0,
                f"gf-match passed at k={p['k']} a={p['a']} d={p['d']} s={p['s']} {p['flavor']}",
                "identities failed there",
            ),
        )
    return CheckReport("closure", {}, "pass", notes=(f"tuples covered: {len(match_pass)}",))


def _params_key(params: dict):
    return (params.get("k"), params.get("a"), params.get("d"), params.get("s"), params.get("flavor"))


def exit_code(reports: list[CheckReport]) -> int:
    return 1 if any(r.status == "fail" for r in reports) else 0


def reports_to_json(reports: list[CheckReport], include_runtime: bool = True) -> str:
    import json

    return json.dumps(
        [r.to_dict(include_runtime) for r in reports], indent=2, sort_keys=False
    )
