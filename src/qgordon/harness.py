"""Batch verification driver: runs every check family over parameter grids
and emits machine-readable reports.

Check families (referenced by these ids on the command line and in reports):

* recurrences     - the counter recurrences, both sides enumerated
* gf-consistency  - functional-equation route vs enumeration route
* summand-eqs     - the eight alpha/beta recurrence displays
* gf-match        - constructed series vs enumerative generating function
* product-eval    - x = 1 specialization vs triple-product combinations
* identities      - the main counter identities over the six shape arms
* closure         - synthetic summary: gf-match pass must imply identities pass

A report is pass/fail/skipped; a skip always carries the violated
applicability condition, and a fail always carries the first mismatching
coefficient.  Identical configurations produce byte-identical canonical JSON
(runtime fields are excluded from the canonical form).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from . import counting, gseries
from .counting import OVER, REGULAR, CountParams
from .series import write_coefficients_csv

CHECK_IDS = (
    "recurrences",
    "gf-consistency",
    "summand-eqs",
    "gf-match",
    "product-eval",
    "identities",
)


class ConfigError(ValueError):
    """Invalid suite configuration; reported before any computation."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification run (the CLI output contract)."""

    check_id: str
    params: dict
    status: str  # "pass" | "fail" | "skipped"
    reason: Optional[str] = None
    first_mismatch: Optional[dict] = None  # {"m", "n", "lhs", "rhs"}
    notes: tuple = ()
    runtime_ms: int = 0

    def __post_init__(self):
        if self.status == "fail" and self.first_mismatch is None:
            raise ValueError("fail reports must carry their first mismatch")
        if self.status == "skipped" and not self.reason:
            raise ValueError("skipped reports must carry a reason")

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


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, int((time.perf_counter() - start) * 1000)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def check_recurrences(cp: CountParams, m_max: int, n_max: int) -> CheckReport:
    """Counter recurrence over a (parts, weight) box, both sides enumerated."""
    params = _tuple_params(cp.k, cp.a, cp.d, cp.s, cp.flavor, None, n_max)

    def run():
        return counting.verify_recurrence(cp, m_max, n_max)

    outcome, ms = _timed(run)
    notes = ("negative lower index extended by zero",) if outcome.extension_used else ()
    if outcome.ok:
        return CheckReport("recurrences", params, "pass", notes=notes, runtime_ms=ms)
    m, n, lhs, rhs = outcome.first_mismatch
    return CheckReport(
        "recurrences",
        params,
        "fail",
        first_mismatch=_mismatch(m, n, lhs, rhs),
        notes=notes,
        runtime_ms=ms,
    )


def check_gf_consistency(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """Functional-equation route against the enumeration route (always applies)."""
    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)

    def run():
        rec = gseries.recurrence_gf(k, a, d, s, flavor, x_order, trunc_order)
        enum = gseries.enumerated_gf(k, a, d, s, flavor, x_order, trunc_order)
        return rec.first_difference(enum)

    diff, ms = _timed(run)
    if diff is None:
        return CheckReport("gf-consistency", params, "pass", runtime_ms=ms)
    m, n, lhs, rhs = diff
    return CheckReport(
        "gf-consistency",
        params,
        "fail",
        first_mismatch=_mismatch(m, n, lhs, rhs),
        runtime_ms=ms,
    )


def check_summand_equations(
    k, d, flavor, n_max, x_order, trunc_order=None
) -> CheckReport:
    """All summand recurrence displays for one (k, d, flavor)."""

    def run():
        return gseries.verify_summand_recurrences(k, d, flavor, n_max, x_order, trunc_order)

    sweep, ms = _timed(run)
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
        return CheckReport("summand-eqs", params, "pass", notes=tuple(notes), runtime_ms=ms)
    first = sweep.failures[0]
    m, n, lhs, rhs = first.mismatch
    notes.append(f"first failing display: {first.display} at s={first.s} a={first.a} n={first.n}")
    return CheckReport(
        "summand-eqs",
        params,
        "fail",
        first_mismatch=_mismatch(m, n, lhs, rhs),
        notes=tuple(notes),
        runtime_ms=ms,
    )


def check_gf_match(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """Constructed series against the enumerative generating function."""
    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)
    applies, why = gseries.identification_conditions(k, a, d, s, flavor)
    if not applies:
        return CheckReport("gf-match", params, "skipped", reason=why)
    notes = []
    if not gseries.identification_grounded(k, a, d, s, flavor):
        notes.append(
            "functional-equation chain leaves the index range (a+s too large); "
            "identification expected to fail"
        )

    def run():
        g = gseries.constructed_gf(
            k, a, d, s, flavor, x_order, trunc_order, require_ordinary=False
        )
        f = gseries.enumerated_gf(k, a, d, s, flavor, x_order, trunc_order)
        r = gseries.recurrence_gf(k, a, d, s, flavor, x_order, trunc_order)
        return g.first_difference(f), f.first_difference(r), g.is_ordinary()

    (gf_diff, route_diff, ordinary), ms = _timed(run)
    if not ordinary:
        notes.append("constructed series has negative q-exponents at this tuple")
    if route_diff is not None:
        m, n, lhs, rhs = route_diff
        return CheckReport(
            "gf-match",
            params,
            "fail",
            first_mismatch=_mismatch(m, n, lhs, rhs),
            notes=("enumeration and functional-equation routes disagree",),
            runtime_ms=ms,
        )
    if gf_diff is None:
        return CheckReport("gf-match", params, "pass", notes=tuple(notes), runtime_ms=ms)
    m, n, lhs, rhs = gf_diff
    return CheckReport(
        "gf-match",
        params,
        "fail",
        first_mismatch=_mismatch(m, n, lhs, rhs),
        notes=tuple(notes),
        runtime_ms=ms,
    )


def check_product_eval(k, a, d, s, flavor, x_order, trunc_order) -> CheckReport:
    """x = 1 specialization against every applicable product combination."""
    params = _tuple_params(k, a, d, s, flavor, x_order, trunc_order)

    def run():
        chk = gseries.x_one_check(k, a, d, s, flavor, x_order, trunc_order)
        bridge = gseries.bridging_identity_holds(d, s, a)
        return chk, bridge

    (chk, bridge), ms = _timed(run)
    notes = [
        f"comparison bound: q^{chk.bound}",
        f"forms compared: {len(chk.results)}",
    ]
    if not chk.identified:
        notes.append("non-identified tuple: bound derived from summand exponents")
    if not chk.ordinary:
        notes.append("specialization compared in Laurent space")
    if not bridge:
        return CheckReport(
            "product-eval",
            params,
            "fail",
            first_mismatch=_mismatch(None, 0, "bridging identity", "mismatch"),
            notes=tuple(notes),
            runtime_ms=ms,
        )
    for label, ok, diff in chk.results:
        if not ok:
            _, n, lhs, rhs = diff
            return CheckReport(
                "product-eval",
                params,
                "fail",
                first_mismatch=_mismatch(None, n, lhs, rhs),
                notes=tuple(notes + [f"failing form: {label}"]),
                runtime_ms=ms,
            )
    return CheckReport("product-eval", params, "pass", notes=tuple(notes), runtime_ms=ms)


# ---------------------------------------------------------------------------
# the main identities
# ---------------------------------------------------------------------------


def _cong_values(k, d, c, flavor, n_max) -> tuple[list[int], bool]:
    series, special = counting.cached_congruence_series(k, d, c, flavor, n_max)
    return list(series.coeffs[: n_max + 1]), special


def check_main_identity(
    k, a, d, s, flavor, n_max, alt_condition: bool = False
) -> CheckReport:
    """One tuple of the main counter identities, with verbatim conditions.

    s = 0: plain equality of the congruence-side and multiplicity-side
    counters.  s != 0: the applicable companion shape, selected by comparing
    d with a + s.  The stated side condition is evaluated verbatim as
    2(a+s) != 2k+2+d; --alt-condition switches to the exceptional-product
    guard 2(a+s) != 2k+2-d.  Tuples failing any stated condition are
    skipped, never silently passed.
    """
    params = _tuple_params(k, a, d, s, flavor, None, n_max)
    notes = [f"side condition evaluated: {'corrected' if alt_condition else 'verbatim'}"]

    if not gseries.identification_conditions(k, a, d, s, flavor)[0]:
        if flavor == REGULAR:
            reason = f"2(a+s) or 2(k+1) not divisible by d = {d}"
        else:
            reason = "over flavor needs d in {1, 2}"
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

    def run():
        cp = CountParams(k, a, d, s, flavor)
        b = counting.count_mult_totals(cp, n_max)

        def bval(n):
            return b[n] if n >= 0 else 0

        special_used = []

        def cong(c):
            vals, special = _cong_values(k, d, c, flavor, n_max)
            if special:
                special_used.append(c)

            def at(n):
                return vals[n] if n >= 0 else 0

            return at

        if s == 0:
            a_at = cong(a)
            shape = "plain equality"
            lhs = lambda n: a_at(n)
            rhs = lambda n: bval(n)
        else:
            hi = cong(a + s)
            if d < a + s:
                lo = cong(a + s - d)
                shape = "companion, d < a+s"
                lhs = lambda n: (
                    hi(n) - hi(n - (d - s)) + lo(n - (d - s)) - lo(n - d)
                )
            elif d == a + s:
                shape = "companion, d = a+s"
                lhs = lambda n: hi(n) - hi(n - (d - s))
            else:
                lo = cong(d - a - s)
                shape = "companion, d > a+s"
                lhs = lambda n: hi(n) - hi(n - (d - s)) + lo(n - (a + s)) - lo(n - a)
            rhs = lambda n: bval(n) - bval(n - d)
        for n in range(n_max + 1):
            left, right = lhs(n), rhs(n)
            if left != right:
                return shape, special_used, (n, left, right)
        return shape, special_used, None

    (shape, special_used, mismatch), ms = _timed(run)
    notes.append(f"shape: {shape}")
    for c in special_used:
        notes.append(f"congruence counter at index {c} is product-defined (2c = modulus)")
    if mismatch is None:
        return CheckReport("identities", params, "pass", notes=tuple(notes), runtime_ms=ms)
    n, lhs_v, rhs_v = mismatch
    return CheckReport(
        "identities",
        params,
        "fail",
        first_mismatch=_mismatch(None, n, lhs_v, rhs_v),
        notes=tuple(notes),
        runtime_ms=ms,
    )


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
# suite orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Grid and options for one batch run."""

    checks: tuple = CHECK_IDS
    ks: tuple = (2, 3)
    ds: tuple = (1, 2)
    a_values: Optional[tuple] = None  # None = all valid for each (k, d)
    s_values: Optional[tuple] = None
    flavors: tuple = (REGULAR, OVER)
    trunc_order: int = 30
    x_order: int = 10
    summand_n_max: int = 3
    alt_condition: bool = False

    def __post_init__(self):
        bad = [c for c in self.checks if c not in CHECK_IDS]
        if bad:
            raise ConfigError(f"unknown checks: {', '.join(bad)}")
        # an empty check list is legal and yields an empty report
        if not self.ks or not self.ds or not self.flavors:
            raise ConfigError("empty grid dimension")
        if any(k < 2 for k in self.ks):
            raise ConfigError("k must be at least 2")
        if any(d < 1 for d in self.ds):
            raise ConfigError("d must be at least 1")
        if any(f not in (REGULAR, OVER) for f in self.flavors):
            raise ConfigError("flavor must be regular or over")
        if self.trunc_order < 1 or self.x_order < 1:
            raise ConfigError("truncation orders must be positive")
        if "product-eval" in self.checks and self.trunc_order < self.x_order:
            raise ConfigError(
                f"product-eval needs trunc_order >= x_order (got N = {self.trunc_order}, "
                f"X = {self.x_order}): the x = 1 comparison is exact only through q^(N-X)"
            )
        if self.a_values is not None and any(v < 1 for v in self.a_values):
            raise ConfigError("a values must be at least 1")
        if self.s_values is not None and any(v < 0 for v in self.s_values):
            raise ConfigError("s values must be non-negative")
        if next(_grid(self), None) is None:
            raise ConfigError("empty grid: no tuple has d <= k, 0 <= s < d and 1 <= a <= k")


def _grid(config: SuiteConfig) -> Iterable[tuple]:
    for flavor in config.flavors:
        for k in config.ks:
            for d in config.ds:
                if d > k:
                    continue
                ss = config.s_values if config.s_values is not None else range(d)
                for s in ss:
                    if not 0 <= s <= d - 1:
                        continue
                    aa = config.a_values if config.a_values is not None else range(1, k + 1)
                    for a in aa:
                        if not 1 <= a <= k:
                            continue
                        yield k, a, d, s, flavor


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run the configured checks; deterministic report order."""
    reports: list[CheckReport] = []
    X, N = config.x_order, config.trunc_order
    if "recurrences" in config.checks:
        for k, a, d, s, flavor in _grid(config):
            reports.append(check_recurrences(CountParams(k, a, d, s, flavor), N, N))
    if "gf-consistency" in config.checks:
        for k, a, d, s, flavor in _grid(config):
            reports.append(check_gf_consistency(k, a, d, s, flavor, X, N))
    if "summand-eqs" in config.checks:
        seen = set()
        for k, a, d, s, flavor in _grid(config):
            if (k, d, flavor) in seen:
                continue
            seen.add((k, d, flavor))
            reports.append(
                check_summand_equations(k, d, flavor, config.summand_n_max, min(X, 8))
            )
    if "gf-match" in config.checks:
        for k, a, d, s, flavor in _grid(config):
            reports.append(check_gf_match(k, a, d, s, flavor, X, N))
    if "product-eval" in config.checks:
        for k, a, d, s, flavor in _grid(config):
            reports.append(check_product_eval(k, a, d, s, flavor, X, N))
    if "identities" in config.checks:
        for k, a, d, s, flavor in _grid(config):
            reports.append(
                check_main_identity(k, a, d, s, flavor, N, config.alt_condition)
            )
    reports.sort(key=_sort_key)
    if "gf-match" in config.checks and "identities" in config.checks:
        reports.append(closure_report(reports))
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
    return json.dumps(
        [r.to_dict(include_runtime) for r in reports], indent=2, sort_keys=False
    )


def export_csv_tables(directory, config: SuiteConfig) -> list[str]:
    """Write counter tables and constructed-series coefficient tables."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for k, a, d, s, flavor in _grid(config):
        stem = f"k{k}_a{a}_d{d}_s{s}_{flavor}"
        counts_path = directory / f"counts_{stem}.csv"
        with open(counts_path, "w", newline="") as fh:
            counting.write_count_table_csv(
                fh, CountParams(k, a, d, s, flavor), config.trunc_order, config.trunc_order
            )
        written.append(str(counts_path))
        series_path = directory / f"series_{stem}.csv"
        g = gseries.constructed_gf(
            k, a, d, s, flavor, config.x_order, config.trunc_order, require_ordinary=False
        )
        with open(series_path, "w", newline="") as fh:
            write_coefficients_csv(fh, g)
        written.append(str(series_path))
    return written
