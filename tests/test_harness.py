"""Suite driver: identity shapes, applicability, determinism, reports."""

import hashlib
import json

import pytest

from qgordon.counting import OVER, REGULAR, CountParams
from qgordon.harness import (
    CHECK_IDS,
    CheckReport,
    ConfigError,
    SuiteConfig,
    check_gf_consistency,
    check_gf_match,
    check_main_identity,
    check_product_eval,
    check_recurrences,
    check_summand_equations,
    closure_report,
    exit_code,
    export_csv_tables,
    reports_to_json,
    run_suite,
)

# the documented counterexample family: the over-companion identities fail
# exactly when a + s > k (a = k, s = 1, d = 2); see the gf-match tests
ESCAPE_TUPLES = {(k, k, 2, 1, OVER) for k in (2, 3, 4, 5)}


# ---------------------------------------------------------------------------
# main identities
# ---------------------------------------------------------------------------


def test_first_rogers_ramanujan_case():
    # distinct non-consecutive parts vs parts = +-1 mod 5; both sides are 2
    # at n = 4 ({4, 3+1} and {4, 1+1+1+1})
    report = check_main_identity(2, 2, 1, 0, REGULAR, 40)
    assert report.status == "pass"
    from qgordon.counting import count_cong, count_mult_total

    assert count_mult_total(CountParams(2, 2, 1, 0), 4) == 2
    assert count_cong(CountParams(2, 2, 1, 0), 4) == 2


def test_bressoud_even_modulus_case():
    for a in (1, 2):
        report = check_main_identity(3, a, 2, 0, REGULAR, 40)
        assert report.status == "pass", report


def test_identity_zero_row_is_trivial():
    # at n = 0 both sides are 1 (empty partition), shifted terms vanish
    for k, a, d, s, flavor in ((3, 2, 2, 1, REGULAR), (2, 1, 2, 1, OVER)):
        report = check_main_identity(k, a, d, s, flavor, 0)
        assert report.status == "pass"


def test_shape_selection_spec_tuple():
    # k=5 d=4 s=1 a=3: both divisibility conditions hold, d = a+s: the
    # two-term companion shape with a product-defined upper counter
    report = check_main_identity(5, 3, 4, 1, REGULAR, 25)
    assert report.status == "pass"
    assert any("d = a+s" in note for note in report.notes)
    assert any("product-defined" in note for note in report.notes)


def test_identity_skip_reasons():
    # the reasons are part of the canonical report, so they are pinned exactly
    reasons = {
        (3, 1, 3, 1, REGULAR, False): "2(a+s) or 2(k+1) not divisible by d = 3",
        (3, 1, 3, 1, OVER, False): "over flavor needs d in {1, 2}",
        (5, 5, 4, 3, REGULAR, False): "2(a+s) = 16 hits the excluded value 16",
        (5, 3, 4, 1, REGULAR, True): "2(a+s) = 8 hits the excluded value 8",
    }
    for (k, a, d, s, flavor, alt), reason in reasons.items():
        report = check_main_identity(k, a, d, s, flavor, 10, alt_condition=alt)
        assert (report.status, report.reason) == ("skipped", reason)


def test_verbatim_condition_is_load_bearing():
    # the verbatim side condition excludes (5,5,4,3); with the "corrected"
    # guard that tuple runs and genuinely fails, while genuinely passing
    # tuples (2(a+s) = 2k+2-d) get skipped
    verbatim = check_main_identity(5, 5, 4, 3, REGULAR, 12, alt_condition=False)
    assert verbatim.status == "skipped"
    alt = check_main_identity(5, 5, 4, 3, REGULAR, 12, alt_condition=True)
    assert alt.status == "fail"
    assert alt.first_mismatch == {"m": None, "n": 4, "lhs": "4", "rhs": "2"}
    ok_verbatim = check_main_identity(5, 3, 4, 1, REGULAR, 12, alt_condition=False)
    assert ok_verbatim.status == "pass"
    ok_alt = check_main_identity(5, 3, 4, 1, REGULAR, 12, alt_condition=True)
    assert ok_alt.status == "skipped"


def test_over_companion_fails_exactly_on_escape_family():
    for k in (2, 3):
        for a in range(1, k + 1):
            report = check_main_identity(k, a, 2, 1, OVER, 14)
            want = "fail" if a + 1 > k else "pass"
            assert report.status == want, (k, a, report)


# ---------------------------------------------------------------------------
# other check families
# ---------------------------------------------------------------------------


def test_check_recurrences_report():
    report = check_recurrences(CountParams(3, 2, 2, 1, OVER), 12, 12)
    assert report.status == "pass"
    report = check_recurrences(CountParams(4, 4, 4, 3, REGULAR), 10, 10)
    assert report.status == "pass"
    assert any("extended" in note for note in report.notes)


def test_check_gf_consistency_report():
    assert check_gf_consistency(3, 2, 2, 1, REGULAR, 6, 18).status == "pass"
    assert check_gf_consistency(2, 2, 2, 1, OVER, 6, 18).status == "pass"


def test_check_summand_equations_report():
    report = check_summand_equations(2, 2, OVER, 2, 6)
    assert report.status == "pass"
    assert any("corrected" in n for n in report.notes)


def test_check_gf_match_statuses():
    assert check_gf_match(3, 2, 2, 1, REGULAR, 6, 18).status == "pass"
    skipped = check_gf_match(3, 2, 3, 1, REGULAR, 6, 18)
    assert skipped.status == "skipped" and "divisible" in skipped.reason
    failed = check_gf_match(2, 2, 2, 1, OVER, 6, 18)
    assert failed.status == "fail"
    assert failed.first_mismatch["lhs"] == "-1"
    assert any("leaves the index range" in n for n in failed.notes)


def test_regular_escape_family_fails_gf_match_by_design():
    # (5, 5, 4, 3) is identified but not grounded: gf-match fails with the
    # expected-failure note, identities skips it under the verbatim side
    # condition, and closure stays green
    config = SuiteConfig(
        checks=("gf-match", "identities"),
        ks=(5,),
        ds=(4,),
        a_values=(5,),
        s_values=(3,),
        flavors=(REGULAR,),
    )
    reports = {r.check_id: r for r in run_suite(config)}
    assert set(reports) == {"gf-match", "identities", "closure"}
    match = reports["gf-match"]
    assert match.status == "fail"
    assert any("identification expected to fail" in n for n in match.notes)
    assert reports["identities"].status == "skipped"
    assert reports["closure"].status == "pass"


def test_check_product_eval_report():
    report = check_product_eval(3, 2, 2, 1, REGULAR, 8, 30)
    assert report.status == "pass"
    report = check_product_eval(4, 4, 4, 3, REGULAR, 8, 30)
    assert report.status == "pass"
    assert any("Laurent" in n for n in report.notes)


# ---------------------------------------------------------------------------
# suite orchestration
# ---------------------------------------------------------------------------


def small_config(**kw):
    defaults = dict(ks=(2,), ds=(1, 2), trunc_order=14, x_order=6, summand_n_max=1)
    defaults.update(kw)
    return SuiteConfig(**defaults)


def test_run_suite_spec_grid_outcome():
    # every check passes except the documented escape tuples, which fail in
    # gf-match and identities
    config = small_config(ks=(2, 3), trunc_order=16)
    reports = run_suite(config)
    failing = {
        (r.check_id, r.params["k"], r.params["a"], r.params["d"], r.params["s"], r.params["flavor"])
        for r in reports
        if r.status == "fail"
    }
    expected = set()
    for k in (2, 3):
        expected.add(("gf-match", k, k, 2, 1, OVER))
        expected.add(("identities", k, k, 2, 1, OVER))
    assert failing == expected
    assert exit_code(reports) == 1


def test_run_suite_clean_subset_exits_zero():
    config = small_config(checks=("recurrences", "product-eval"))
    reports = run_suite(config)
    assert all(r.status == "pass" for r in reports)
    assert exit_code(reports) == 0


def test_run_suite_empty_checks():
    reports = run_suite(small_config(checks=()))
    assert reports == []
    assert exit_code(reports) == 0


def test_report_determinism():
    config = small_config(checks=("gf-match", "identities"))
    a = reports_to_json(run_suite(config), include_runtime=False)
    b = reports_to_json(run_suite(config), include_runtime=False)
    assert a == b
    parsed = json.loads(a)
    # the schema is a stability contract: exactly these keys, in canonical form
    want_keys = {"check_id", "params", "status", "reason", "first_mismatch", "notes"}
    assert all(set(r) == want_keys for r in parsed)
    full = json.loads(reports_to_json(run_suite(config), include_runtime=True))
    assert all(set(r) == want_keys | {"runtime_ms"} for r in full)
    # counts serialize as decimal strings
    fails = [r for r in parsed if r["status"] == "fail"]
    assert fails and all(isinstance(r["first_mismatch"]["lhs"], str) for r in fails)


def _digest(config) -> str:
    canonical = reports_to_json(run_suite(config), include_runtime=False)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def test_canonical_reports_are_pinned():
    # the first 16 hex digits of the SHA-256 of the canonical JSON of the
    # default run, of the identities at N = 80 and of the x = 1 grid
    # (criteria 07/08)
    assert _digest(SuiteConfig()) == "77451144f0aa7298"
    assert _digest(SuiteConfig(checks=("identities",), trunc_order=80)) == "5588c539b0004d03"
    x_one_grid = SuiteConfig(
        checks=("gf-match", "product-eval"),
        ks=(2, 3, 4),
        ds=(1, 2, 3, 4),
        trunc_order=40,
        x_order=10,
    )
    assert _digest(x_one_grid) == "3993047fb61b9e94"


def test_closure_invariant_holds_on_suite():
    config = small_config(ks=(2, 3), checks=("gf-match", "identities"), trunc_order=16)
    reports = run_suite(config)
    closure = [r for r in reports if r.check_id == "closure"]
    assert len(closure) == 1
    assert closure[0].status == "pass"


def test_closure_detects_violation():
    good = CheckReport(
        "gf-match",
        {"k": 2, "a": 1, "d": 1, "s": 0, "flavor": REGULAR},
        "pass",
    )
    bad = CheckReport(
        "identities",
        {"k": 2, "a": 1, "d": 1, "s": 0, "flavor": REGULAR},
        "fail",
        first_mismatch={"m": None, "n": 3, "lhs": "1", "rhs": "2"},
    )
    report = closure_report([good, bad])
    assert report.status == "fail"


def test_report_validation():
    with pytest.raises(ValueError):
        CheckReport("identities", {}, "fail")  # fail without mismatch
    with pytest.raises(ValueError):
        CheckReport("identities", {}, "skipped")  # skip without reason


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(checks=("no-such-check",))
    with pytest.raises(ConfigError):
        SuiteConfig(ks=(1,))
    with pytest.raises(ConfigError):
        SuiteConfig(flavors=("sideways",))
    with pytest.raises(ConfigError):
        SuiteConfig(trunc_order=0)


def test_config_rejects_product_eval_below_x_order():
    with pytest.raises(ConfigError, match=r"q\^\(N-X\)"):
        SuiteConfig(trunc_order=9, x_order=10)
    with pytest.raises(ConfigError):
        SuiteConfig(checks=("product-eval",), trunc_order=1, x_order=2)
    SuiteConfig(trunc_order=10, x_order=10)
    SuiteConfig(checks=("identities", "gf-match"), trunc_order=1, x_order=10)


def test_csv_export(tmp_path):
    config = small_config(checks=("identities",), ks=(2,), ds=(1,), flavors=(REGULAR,))
    files = export_csv_tables(tmp_path, config)
    assert len(files) == 2 * 2  # two tuples (a = 1, 2), counts + series each
    for name in files:
        with open(name) as fh:
            header = fh.readline().strip()
        assert header in ("k,a,d,s,flavor,m,n,count", "x_exp,q_exp,coefficient")
