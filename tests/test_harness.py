"""Suite driver: identity shapes, applicability, determinism, reports."""

import hashlib
import json
import random
import sys
import threading
from pathlib import Path

import pytest

from qgordon import counting, gseries, harness
from qgordon.counting import OVER, REGULAR, CountParams
from qgordon.series import BiSeries, theta_laurent
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


def hand_written_arm(a, d, s, rows, n):
    """The companion left-hand side at n, written out arm by arm, with F_c
    the row rows[c] and F_c(n) = 0 for n < 0: the oracle for
    gseries._companion_terms."""

    def at(c, m):
        return rows[c][m] if m >= 0 else 0

    hi = a + s
    if d < a + s:
        lo = a + s - d
        return at(hi, n) - at(hi, n - (d - s)) + at(lo, n - (d - s)) - at(lo, n - d)
    if d == a + s:
        return at(hi, n) - at(hi, n - (d - s))
    lo = d - a - s
    return at(hi, n) - at(hi, n - (d - s)) + at(lo, n - (a + s)) - at(lo, n - a)


def test_companion_terms_match_the_hand_written_arms():
    rng = random.Random(24)
    n_max = 30
    for k in range(2, 9):
        for d in range(2, k + 1):
            rows = {c: [rng.randint(-99, 99) for _ in range(n_max + 1)] for c in range(1, k + d)}
            for s in range(1, d):
                for a in range(1, k + 1):
                    terms = gseries._companion_terms(a, d, s, reflected=d > a + s)
                    for n in range(n_max + 1):
                        got = sum(sign * rows[c][n - e] for sign, e, c in terms if e <= n)
                        assert got == hand_written_arm(a, d, s, rows, n), (k, a, d, s, n)


def test_companion_terms_leave_out_index_zero():
    # the theta sum at index 0 is zero, at q-offset 0, so leaving its terms
    # out changes neither a form nor the window of the forms
    for M in range(1, 13):
        theta = theta_laurent(0, M, 40)
        assert theta.is_zero() and theta.q_offset == 0, M
    # at a+s = d the two arguments agree once the index-0 terms are gone
    for d in range(1, 9):
        for s in range(d):
            shifted = gseries._companion_terms(d - s, d, s, reflected=False)
            assert shifted == gseries._companion_terms(d - s, d, s, reflected=True)
            assert shifted == [(1, 0, d), (-1, d - s, d)]


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


def test_product_eval_skips_a_negative_comparison_bound():
    # at x_order 1, below the exponent deficit of its summands, the provable
    # bound of (4, 4, 4, 3) is q^-1 and nothing can be compared: a skip that
    # names the bound, not a fail at n = -1 with no coefficient
    assert gseries.x_one_exact_bound(4, 4, 4, 3, REGULAR, 1, 1) == -1
    report = check_product_eval(4, 4, 4, 3, REGULAR, 1, 1)
    assert report.status == "skipped" and report.first_mismatch is None
    assert report.reason == (
        "comparison bound q^-1 is negative: "
        "x_order = 1 is below the summands' exponent deficit"
    )


def test_gf_match_reports_disagreeing_routes(monkeypatch):
    # one functional-equation coefficient off by one: gf-match names the
    # route disagreement (and only that) at the first differing coefficient
    recurrence_gf = gseries.recurrence_gf

    def off_by_one(k, a, d, s, flavor, x_order, trunc_order):
        bump = BiSeries.monomial(1, 2, 7, x_order, trunc_order)
        return recurrence_gf(k, a, d, s, flavor, x_order, trunc_order) + bump

    monkeypatch.setattr(gseries, "recurrence_gf", off_by_one)
    report = check_gf_match(3, 2, 2, 1, REGULAR, 6, 18)
    assert report.status == "fail"
    assert report.notes == ("enumeration and functional-equation routes disagree",)
    assert report.first_mismatch == {"m": 2, "n": 7, "lhs": "2", "rhs": "3"}


def test_product_eval_names_the_failing_form(monkeypatch):
    # the bilateral-theta form off by one at q^4: the shifted-argument form
    # still agrees, and the report names the theta form and the coefficient
    forms = gseries.x_one_product_forms

    def theta_off_by_one(k, a, d, s, flavor, trunc_order):
        return [
            (label, f + BiSeries.monomial(1, 0, 4, 0, trunc_order))
            if label == "bilateral-theta form"
            else (label, f)
            for label, f in forms(k, a, d, s, flavor, trunc_order)
        ]

    monkeypatch.setattr(gseries, "x_one_product_forms", theta_off_by_one)
    report = check_product_eval(3, 2, 2, 1, REGULAR, 8, 30)
    assert report.status == "fail"
    assert report.notes == (
        "comparison bound: q^22",
        "forms compared: 2",
        "failing form: bilateral-theta form",
    )
    assert report.first_mismatch == {"m": None, "n": 4, "lhs": "3", "rhs": "4"}


def test_summand_equations_report_the_first_failing_display(monkeypatch, request):
    # alpha[0]_1 with its x^3 row's first slot off by one (as in
    # test_summand_sweep_names_each_failing_display): the report counts every
    # instance and names the first failing display and its coefficient
    build = gseries._build_summand

    def corrupted(kind, k, d, s, n, flavor, x_order, trunc_order):
        f = build(kind, k, d, s, n, flavor, x_order, trunc_order)
        if (kind, s, n) == ("alpha", 0, 1):
            f = f._replace(rows=[r + (m == 3) for m, r in enumerate(f.rows)])
        return f

    monkeypatch.setattr(gseries, "_build_summand", corrupted)
    harness._end_group()
    request.addfinalizer(harness._end_group)  # the corrupted builds go with the test
    report = check_summand_equations(3, 2, REGULAR, 2, 4)
    assert report.status == "fail"
    assert report.notes == (
        "instances checked: 36",
        "first failing display: alpha-step at s=0 a=1 n=1",
    )
    # alpha[0]_1 starts at q^6 (M = 6); the q^(-n a) = q^-1 shift puts it at x^3 q^5
    assert report.first_mismatch == {"m": 3, "n": 5, "lhs": "1", "rhs": "0"}


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
    # product-eval alone, which builds each constructed sum itself at its bound
    assert _digest(x_one_grid._replace(checks=("product-eval",))) == "0a9afc89e6e3ebf1"
    # all-mid: every check over 18 (flavor, k, d) groups
    all_mid = SuiteConfig(ks=(2, 3, 4), ds=(1, 2, 3, 4), trunc_order=60, x_order=16)
    assert _digest(all_mid) == "cb1e22239515f302"
    # the summand displays over k 2..6 and d 1..6, the one pinned grid with
    # d up to 6
    summand_eqs = SuiteConfig(
        checks=("summand-eqs",),
        ks=(2, 3, 4, 5, 6),
        ds=(1, 2, 3, 4, 5, 6),
        trunc_order=40,
        x_order=10,
    )
    assert _digest(summand_eqs) == "70a3df254de8add9"
    # the identities over k 2..8 and d 1..8, the one pinned grid that reaches
    # the reflected arm (d > a+s), under both side conditions
    identities_k8 = SuiteConfig(
        checks=("identities",), ks=tuple(range(2, 9)), ds=tuple(range(1, 9)), trunc_order=40
    )
    assert _digest(identities_k8) == "fb4edd189018f314"
    assert _digest(identities_k8._replace(alt_condition=True)) == "4a9909f885d68229"


def group_memos() -> dict:
    """The registered group memos (counting._GROUP_MEMOS), by qualified name."""
    return {
        f"{module.__name__}.{name}": memo
        for module in (counting, gseries)
        for name, memo in vars(module).items()
        if any(memo is held for held in counting._GROUP_MEMOS)
    }


def test_every_group_memo_is_registered():
    # each module-level memo of counting and gseries is either registered or
    # one of the two shared across groups, and nothing else is registered
    shared = {"_width_cache", "_mask_cache"}
    for module in (counting, gseries):
        for name, memo in vars(module).items():
            if name.startswith("_") and name.endswith("_cache") and isinstance(memo, dict):
                registered = any(memo is held for held in counting._GROUP_MEMOS)
                assert registered != (name in shared), f"{module.__name__}.{name}"
    assert len(counting._GROUP_MEMOS) == len(group_memos()) == 6


def test_run_suite_empties_the_group_memos_in_place():
    before = group_memos()
    assert before
    filled = set()

    def note_filled(report):
        filled.update(name for name, memo in group_memos().items() if memo)

    run_suite(small_config(ks=(2, 3), trunc_order=12, x_order=4), on_report=note_filled)
    assert filled == set(before)  # every memo was in use during the run
    after = group_memos()
    assert all(after[name] is memo and memo == {} for name, memo in before.items())


def test_run_suite_times_each_report_once(monkeypatch):
    # a clock that steps 0.25 s per read: every report from a driver carries
    # exactly one step, so it was timed once with no other read in between;
    # skipped reports are timed too, and closure is not timed
    reads = []

    def clock():
        reads.append(None)
        return len(reads) * 0.25

    monkeypatch.setattr(harness, "perf_counter", clock)
    config = small_config(ks=(3,), ds=(1, 3), trunc_order=8, x_order=4)
    reports = run_suite(config)
    timed = [r for r in reports if r.check_id != "closure"]
    assert [r.runtime_ms for r in timed] == [250] * len(timed)
    assert len(reads) == 2 * len(timed)
    assert {r.check_id for r in timed} == set(CHECK_IDS)
    assert any(r.status == "skipped" for r in timed)
    assert [r.runtime_ms for r in reports if r.check_id == "closure"] == [0]
    # a driver called directly reads no clock
    skipped = check_gf_match(3, 2, 3, 1, REGULAR, 4, 8)
    assert skipped.status == "skipped" and skipped.runtime_ms == 0
    assert len(reads) == 2 * len(timed)


def test_concurrent_runs_match_their_serial_reports():
    # each run empties the memos when one of its groups ends, while the
    # others may be reading them: that costs them a rebuild, never a value
    configs = [
        small_config(ks=(2, 3), ds=(1, 2, 3), trunc_order=5, x_order=2),
        small_config(
            checks=("recurrences", "identities"), ks=(2, 3, 4), ds=(1, 2, 3), trunc_order=4
        ),
        small_config(
            checks=("recurrences", "gf-consistency"), ks=(2, 3, 4), trunc_order=4, x_order=2
        ),
    ]
    serial = [reports_to_json(run_suite(config), include_runtime=False) for config in configs]
    results = [[] for _ in configs]
    errors = []

    def worker(i):
        try:
            for _ in range(15):
                reports = run_suite(configs[i])
                results[i].append(reports_to_json(reports, include_runtime=False))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert [len(got) for got in results] == [15] * len(configs)
    assert all(got == serial[i] for i, runs in enumerate(results) for got in runs)


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


def test_config_rejects_a_negative_summand_index():
    # n_max = -1 checked no display instance and passed every group
    with pytest.raises(ConfigError, match="summand_n_max"):
        SuiteConfig(checks=("summand-eqs",), summand_n_max=-1)
    reports = run_suite(SuiteConfig(checks=("summand-eqs",), summand_n_max=0))
    assert all(r.status == "pass" and r.notes[0] != "instances checked: 0" for r in reports)


@pytest.mark.parametrize(
    "repeated",
    [
        {"ks": (2, 2)},
        {"ds": (1, 2, 1)},
        {"a_values": (1, 1)},
        {"s_values": (0, 0)},
        {"flavors": (REGULAR, REGULAR)},
    ],
    ids=lambda kwargs: next(iter(kwargs)),
)
def test_config_rejects_repeated_grid_values(repeated):
    # a repeat made each of its reports twice: ks = (2, 2) gave 24
    # identities reports for 12 tuples
    with pytest.raises(ConfigError, match="repeated"):
        SuiteConfig(checks=("identities",), **repeated)


def test_config_rejects_product_eval_below_x_order():
    with pytest.raises(ConfigError, match=r"q\^\(N-X\)"):
        SuiteConfig(trunc_order=9, x_order=10)
    with pytest.raises(ConfigError):
        SuiteConfig(checks=("product-eval",), trunc_order=1, x_order=2)
    SuiteConfig(trunc_order=10, x_order=10)
    SuiteConfig(checks=("identities", "gf-match"), trunc_order=1, x_order=10)


def test_csv_export(tmp_path):
    config = small_config(checks=("identities",), ks=(2,), ds=(1,), flavors=(REGULAR,))
    run_suite(config, csv_dir=tmp_path)
    files = sorted(tmp_path.iterdir())
    assert len(files) == 2 * 2  # two tuples (a = 1, 2), counts + series each
    for name in files:
        with open(name) as fh:
            header = fh.readline().strip()
        assert header in ("k,a,d,s,flavor,m,n,count", "x_exp,q_exp,coefficient")


def test_csv_export_empties_the_group_memos_in_place(tmp_path, monkeypatch):
    before = group_memos()
    held = []  # count-table groups held as each group ends
    end_group = harness._end_group

    def spy_end_group():
        held.append(len(counting._table_cache))
        end_group()

    monkeypatch.setattr(harness, "_end_group", spy_end_group)
    config = small_config(ks=(2, 3), trunc_order=12, x_order=4)
    run_suite(config, csv_dir=tmp_path)
    files = list(tmp_path.iterdir())
    assert len(files) == 2 * len(list(harness._grid(config)))
    assert held == [1] * 8  # one per (flavor, k, d) group, each holding its own
    after = group_memos()
    assert all(after[name] is memo and memo == {} for name, memo in before.items())


def test_readme_worked_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Worked example", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (worked example)", "exec"), {})


def test_record_types_keep_their_checks_and_equality():
    from qgordon.counting import FreqSolution, RecurrenceOutcome
    from qgordon.gseries import DisplayCheck, SummandSweep, XOneCheck
    from qgordon.series import DomainError

    # the frozen records are NamedTuples: equal to the plain tuple of their
    # fields, immutable, and validated on construction and on _replace
    cp = CountParams(3, 2, 2, 1)
    assert cp == (3, 2, 2, 1, REGULAR) and hash(cp) == hash((3, 2, 2, 1, REGULAR))
    assert CountParams(k=3, a=2, d=2, s=1, flavor=OVER).is_over
    with pytest.raises(AttributeError):
        cp.k = 4
    with pytest.raises(DomainError, match="s must satisfy"):
        cp._replace(s=2)
    with pytest.raises(ValueError, match="same length"):
        FreqSolution((1,), ())._replace(over_flags=(0, 0))
    assert RecurrenceOutcome(True, None, False) == (True, None, False)
    report = CheckReport("identities", {}, "pass")
    assert report == ("identities", {}, "pass", None, None, (), 0)
    with pytest.raises(ValueError, match="skipped reports must carry a reason"):
        report._replace(status="skipped")
    assert SuiteConfig() == SuiteConfig(CHECK_IDS, (2, 3), (1, 2), None, None, (REGULAR, OVER))
    with pytest.raises(ConfigError, match="k must be at least 2"):
        SuiteConfig()._replace(ks=(1,))

    # the sweep records are NamedTuples too: built once, immutable, equal to
    # the plain tuple of their fields, with the same fields and defaults
    fields = (2, 1, REGULAR, 3, 8, 40)
    sweep = SummandSweep(*fields)
    assert sweep == (*fields, (), True, True, 0) and sweep.ok
    with pytest.raises(AttributeError):
        sweep.instances = 1
    failure = DisplayCheck("alpha", 0, 1, 2, False, (0, 2, 1, 0))
    failed = sweep._replace(failures=(failure,), instances=1)
    assert not failed.ok and failed == SummandSweep(*fields, (failure,), instances=1)
    assert not sweep._replace(suspect_corrected_ok=False).ok
    assert hash(failed) == hash((*fields, (failure,), True, True, 1))
    assert repr(DisplayCheck("alpha", 0, 1, 2, True)) == (
        "DisplayCheck(display='alpha', s=0, a=1, n=2, ok=True, mismatch=None)"
    )
    chk = XOneCheck(5, True, True, (("form", False, (None, 3, 1, 0)),))
    assert chk == (5, True, True, (("form", False, (None, 3, 1, 0)),)) and not chk.ok
    assert XOneCheck(5, True, True, (("form", True, None),)).ok
