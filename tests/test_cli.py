"""Command-line interface: parsing, exit codes, artifacts, streaming."""

import errno
import io
import json
import os
import select
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qgordon import cli, harness
from qgordon.cli import main, parse_checks, parse_range, render_line
from qgordon.harness import CHECK_IDS, ConfigError, reports_to_json, run_suite

SRC = Path(__file__).resolve().parent.parent / "src"
# gf-match runs before identities; the over tuple (2, 2, 2, 1) fails both by design
STREAM_GRID = ["--checks", "gf-match,identities", "--k", "2", "--d", "1..2"]
STREAM_GRID += ["--trunc-n", "12", "--trunc-x", "4"]


def config_of(argv):
    return cli.config_from_args(cli.build_parser().parse_args(argv))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def canonical(reports):
    return [r.to_dict(include_runtime=False) for r in reports]


def test_parse_range_forms():
    assert parse_range("3", "k") == (3,)
    assert parse_range("2..4", "k") == (2, 3, 4)
    assert parse_range("all", "a", allow_all=True) is None
    with pytest.raises(ConfigError):
        parse_range("all", "k")
    with pytest.raises(ConfigError):
        parse_range("4..2", "k")
    with pytest.raises(ConfigError):
        parse_range("x", "k")


def test_parse_checks():
    assert parse_checks("all") == CHECK_IDS
    assert parse_checks("identities, gf-match") == ("identities", "gf-match")
    assert parse_checks("") == ()
    # "all" expands in place and the other names are kept
    assert parse_checks("all,bogus") == CHECK_IDS + ("bogus",)
    assert parse_checks("identities,all") == ("identities",) + tuple(
        c for c in CHECK_IDS if c != "identities"
    )


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "--checks",
            "identities",
            "--k",
            "2",
            "--d",
            "1",
            "--flavor",
            "regular",
            "--trunc-n",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 2  # a = 1, 2
    assert all(r["status"] == "pass" for r in reports)
    text = capsys.readouterr().out
    assert "2 passed, 0 failed, 0 skipped" in text


def test_cli_failure_exit_code(tmp_path):
    code = main(
        [
            "--checks",
            "identities",
            "--k",
            "2",
            "--d",
            "2",
            "--s",
            "1",
            "--a",
            "2",
            "--flavor",
            "over",
            "--trunc-n",
            "12",
        ]
    )
    assert code == 1


def test_cli_config_error_exit_code(capsys):
    assert main(["--checks", "nonsense"]) == 2
    assert "configuration error" in capsys.readouterr().err
    # an unknown name next to "all" is still an error, not a full run
    assert main(["--checks", "all,bogus"]) == 2
    assert "unknown checks: bogus" in capsys.readouterr().err
    assert main(["--k", "1..0"]) == 2


def test_cli_empty_grid_is_config_error(capsys):
    # d > k and a > k leave no tuple to check
    assert main(["--k", "2", "--d", "5"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--k", "2", "--a", "7"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_product_eval_needs_trunc_n_at_least_trunc_x(capsys):
    # below X the x = 1 comparison bound N - X is negative: a configuration
    # error, not 34 failures with mismatches at negative n
    assert main(["--trunc-n", "1"]) == 2
    assert "exact only through q^(N-X)" in capsys.readouterr().err
    grid = ["--k", "2", "--d", "1"]
    assert main(["--checks", "product-eval", *grid, "--trunc-n", "4", "--trunc-x", "5"]) == 2
    assert main(["--checks", "product-eval", *grid, "--trunc-n", "5", "--trunc-x", "5"]) == 0
    assert main(["--checks", "identities", *grid, "--trunc-n", "1"]) == 0


def test_cli_unusable_output_path_is_config_error(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("the suite ran before its outputs were opened")

    monkeypatch.setattr(harness, "run_suite", no_run)
    plain = tmp_path / "plain.txt"
    plain.write_text("kept\n")
    grid = ["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "8"]
    for bad in (
        ["--out", str(tmp_path)],  # a directory
        ["--out", str(tmp_path / "missing" / "r.json")],  # a missing parent
        ["--csv-dir", str(plain / "csv")],  # under a regular file
        ["--csv-dir", str(plain)],  # a regular file
    ):
        assert main(grid + bad) == 2, bad
        assert "configuration error: cannot write output" in capsys.readouterr().err
    assert plain.read_text() == "kept\n"


@pytest.mark.parametrize(
    "grid, summary",
    [
        (
            ["--k", "4", "--d", "4", "--trunc-n", "1", "--trunc-x", "1"],
            "28 passed, 0 failed, 4 skipped",
        ),
        (
            ["--k", "2..8", "--d", "1..8", "--trunc-n", "10", "--trunc-x", "4"],
            "1478 passed, 0 failed, 20 skipped",
        ),
    ],
)
def test_cli_product_eval_skips_tuples_with_nothing_to_compare(grid, summary, capsys):
    # tuples whose comparison bound is negative (x_order below the summands'
    # exponent deficit) are skipped with the bound named, never failed
    assert main(["--checks", "product-eval", *grid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == summary
    skips = [line for line in lines if line.startswith("[skip]")]
    assert skips and all("is negative: x_order = " in line for line in skips)


FULL_DISK = f"cannot write output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


class FullDisk(io.StringIO):
    """An --out file whose every write fails as on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_cli_failed_out_write_exits_2(monkeypatch, capsys):
    # the run completes and prints its lines; the --out write then fails: exit
    # 2 with one message, not a traceback and exit 1 ("a check failed")
    monkeypatch.setattr(cli, "open_outputs", lambda args: FullDisk())
    grid = ["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "3"]
    assert main(grid + ["--out", "report.json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == FULL_DISK
    assert captured.out.splitlines()[-1] == "4 passed, 0 failed, 0 skipped"


def test_cli_failed_write_keeps_the_report_at_out(tmp_path, capsys):
    # the --csv-dir collision stops the run after --out was opened: the report
    # already at --out survives, and no temporary file is left beside it
    csv_dir, out = tmp_path / "csv", tmp_path / "r.json"
    (csv_dir / "counts_k2_a1_d1_s0_regular.csv").mkdir(parents=True)
    out.write_text("earlier report\n")
    grid = ["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "3"]
    assert main(grid + ["--csv-dir", str(csv_dir), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")
    assert out.read_text() == "earlier report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["csv", "r.json"]


def test_cli_out_is_replaced_when_the_run_ends(tmp_path, capsys):
    # the report is written beside --out and renamed over it: through a
    # symlink, the file it points to gets the report
    out, link = tmp_path / "r.json", tmp_path / "link.json"
    out.write_text("earlier report\n")
    link.symlink_to(out)
    grid = ["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "3"]
    assert main(grid + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert capsys.readouterr().out.splitlines()[-1] == "4 passed, 0 failed, 0 skipped"
    assert [r["check_id"] for r in json.loads(out.read_text())] == ["identities"] * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "r.json"]


def test_cli_csv_name_taken_by_a_directory_exits_2(tmp_path, capsys):
    csv_dir = tmp_path / "csv"
    (csv_dir / "counts_k2_a1_d1_s0_regular.csv").mkdir(parents=True)
    grid = ["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "3"]
    assert main(grid + ["--csv-dir", str(csv_dir), "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    is_a_directory = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
    assert err.startswith(f"cannot write output: {is_a_directory}: ")
    assert "counts_k2_a1_d1_s0_regular.csv" in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("redirect", ["out", "stdout"])
def test_cli_write_to_a_full_device_exits_2_without_traceback(redirect):
    argv = [sys.executable, "-m", "qgordon.cli", "--checks", "identities"]
    argv += ["--k", "2", "--d", "1", "--trunc-n", "3"]
    with open("/dev/full", "w") as full:
        if redirect == "out":
            argv += ["--out", "/dev/full"]
        stdout = full if redirect == "stdout" else subprocess.DEVNULL
        done = subprocess.run(
            argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=child_env(), timeout=60
        )
    assert done.returncode == 2
    assert done.stderr == FULL_DISK


def test_cli_empty_checks(capsys):
    assert main(["--checks", ""]) == 0
    assert "0 passed" in capsys.readouterr().out


def test_cli_csv_export(tmp_path):
    code = main(
        [
            "--checks",
            "identities",
            "--k",
            "2",
            "--d",
            "1",
            "--flavor",
            "regular",
            "--trunc-n",
            "12",
            "--csv-dir",
            str(tmp_path / "csv"),
        ]
    )
    assert code == 0
    files = sorted(p.name for p in (tmp_path / "csv").iterdir())
    assert files == [
        "counts_k2_a1_d1_s0_regular.csv",
        "counts_k2_a2_d1_s0_regular.csv",
        "series_k2_a1_d1_s0_regular.csv",
        "series_k2_a2_d1_s0_regular.csv",
    ]


def test_cli_single_tuple_shape_run(tmp_path):
    # one-tuple grid: k=5 d=4 s=1 a=3 meets the stated conditions and runs
    # the two-term companion shape
    out = tmp_path / "r.json"
    code = main(
        [
            "--checks",
            "identities",
            "--k",
            "5",
            "--d",
            "4",
            "--s",
            "1",
            "--a",
            "3",
            "--flavor",
            "regular",
            "--trunc-n",
            "25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert reports[0]["status"] == "pass"
    assert any("d = a+s" in n for n in reports[0]["notes"])


def test_cli_alt_condition_flag_recorded(tmp_path):
    out = tmp_path / "r.json"
    main(
        [
            "--checks",
            "identities",
            "--k",
            "2",
            "--d",
            "1",
            "--flavor",
            "regular",
            "--trunc-n",
            "10",
            "--alt-condition",
            "--out",
            str(out),
        ]
    )
    reports = json.loads(out.read_text())
    assert all("corrected" in r["notes"][0] for r in reports)


def test_cli_writes_each_report_line_before_the_next_check(monkeypatch, capsys):
    written_before = []  # stdout written since the previous identities check began
    check = harness.check_main_identity

    def reading_stdout(*args, **kwargs):
        written_before.append(capsys.readouterr().out)
        return check(*args, **kwargs)

    monkeypatch.setattr(harness, "check_main_identity", reading_stdout)
    assert main(STREAM_GRID) == 1
    groups = list(harness._groups(config_of(STREAM_GRID)))
    assert len(groups) == 4  # (flavor, d) with k = 2
    assert len(written_before) == sum(map(len, groups))
    checks = iter(written_before)
    for number, group in enumerate(groups):
        # a group's gf-match lines are out before its first identities check
        # runs, after the previous group's last identities line
        lines = next(checks).splitlines()
        if number:
            assert " identities " in lines.pop(0)
        assert len(lines) == len(group)
        assert all(" gf-match " in line for line in lines)
        # and each identities line before the next one's check runs
        for _ in group[1:]:
            out = next(checks)
            assert out.count("\n") == 1 and " identities " in out


def test_cli_stdout_is_run_order_then_closure_then_summary(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(STREAM_GRID + ["--out", str(out)]) == 1
    first = capsys.readouterr().out
    assert main(STREAM_GRID) == 1
    assert capsys.readouterr().out == first

    config = config_of(STREAM_GRID)
    reports = run_suite(config)
    line_of = {(r.check_id, harness._params_key(r.params)): render_line(r) for r in reports}
    run_order = [
        line_of[check, t]
        for group in harness._groups(config)
        for check in ("gf-match", "identities")
        for t in group
    ]
    lines = first.splitlines()
    assert lines[:-2] == run_order
    assert lines[-2] == render_line(reports[-1]) and reports[-1].check_id == "closure"
    assert lines[-1] == "23 passed, 2 failed, 0 skipped"
    # run order is not the canonical order: regular tuples run first
    assert run_order != [render_line(r) for r in reports[:-1]]
    assert sorted(lines[:-1]) == sorted(render_line(r) for r in reports)

    written = json.loads(out.read_text())
    assert [r.pop("runtime_ms") >= 0 for r in written] == [True] * len(reports)
    assert written == json.loads(reports_to_json(reports, include_runtime=False))


def test_run_suite_callback_sees_every_report_and_changes_nothing():
    config = config_of(STREAM_GRID)
    seen = []
    with_callback = run_suite(config, on_report=seen.append)
    assert canonical(with_callback) == canonical(run_suite(config))
    assert seen[-1] is with_callback[-1] and seen[-1].check_id == "closure"
    assert sorted(map(id, seen)) == sorted(map(id, with_callback))


@st.composite
def small_runs(draw):
    """The arguments of a small qgordon-verify run: k <= 3, N <= 12, X <= 4,
    any subset of the checks (product-eval only with N >= X)."""
    checks = draw(st.lists(st.sampled_from(CHECK_IDS), unique=True))
    k_lo = draw(st.integers(2, 3))
    k_hi = draw(st.integers(k_lo, 3))
    d_hi = draw(st.integers(1, k_hi))
    x_order = draw(st.integers(1, 4))
    trunc_order = draw(st.integers(x_order if "product-eval" in checks else 1, 12))
    argv = ["--checks", ",".join(checks), "--k", f"{k_lo}..{k_hi}", "--d", f"1..{d_hi}"]
    argv += ["--flavor", draw(st.sampled_from(("regular", "over", "both")))]
    argv += ["--trunc-n", str(trunc_order), "--trunc-x", str(x_order)]
    return argv + (["--alt-condition"] if draw(st.booleans()) else [])


@settings(max_examples=12, deadline=None)
@given(small_runs())
def test_cli_round_trip(argv):
    # two runs write the same --out once runtime_ms is dropped, and each
    # exits 1 exactly when some report fails
    written, codes = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            out = Path(tmp) / f"run{run}.json"
            codes.append(main(argv + ["--out", str(out)]))
            reports = json.loads(out.read_text())
            for r in reports:
                del r["runtime_ms"]
            written.append([list(r.items()) for r in reports])
    assert written[0] == written[1]
    failed = any(("status", "fail") in r for r in written[0])
    assert codes == [int(failed)] * 2


def test_cli_closed_stdout_still_finishes_the_run(tmp_path):
    # the second identities check waits until the reader has closed stdout,
    # so every later line meets a closed pipe
    child = """
import sys
from qgordon import cli, harness
check, calls = harness.check_main_identity, []
def gated(*args, **kwargs):
    calls.append(None)
    if len(calls) == 2:
        sys.stdin.read(1)
    return check(*args, **kwargs)
harness.check_main_identity = gated
sys.exit(cli.main(sys.argv[1:]))
"""
    out, csv_dir = tmp_path / "r.json", tmp_path / "csv"
    argv = STREAM_GRID + ["--flavor", "regular", "--out", str(out), "--csv-dir", str(csv_dir)]
    with subprocess.Popen(
        [sys.executable, "-c", child, *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    ) as proc:
        try:
            # a CLI that writes nothing before the run ends would wait here for good
            assert select.select([proc.stdout], [], [], 60)[0], "no line before the second check"
            first = proc.stdout.readline()
        except BaseException:
            proc.kill()
            raise
        proc.stdout.close()
        proc.stdin.write(b"x")
        proc.stdin.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 0, stderr
    assert first.startswith(b"[PASS] gf-match")
    assert stderr == ""
    config = config_of(argv)
    written = json.loads(out.read_text())
    for r in written:
        del r["runtime_ms"]
    assert written == canonical(run_suite(config))
    assert len(list(csv_dir.iterdir())) == 2 * len(list(harness._grid(config)))


LAYERS = {"qgordon.counting", "qgordon.gseries", "qgordon.series", "qgordon._packing"}


def run_module_child(argv):
    """Child code that runs python -m qgordon.cli ARGV."""
    return (
        f"import runpy; sys.argv = ['qgordon-verify', *{argv!r}]\n"
        "try: runpy.run_module('qgordon.cli', run_name='__main__')\n"
        "except SystemExit as exc: print('exit', exc.code)"
    )


def added_modules(load):
    """The modules that running `load` in a fresh child adds, and its stdout
    before that list.  Modules the interpreter loaded at start-up (a site
    hook, say) are not counted: only what `load` adds."""
    child = f"import sys\nbefore = set(sys.modules)\n{load}\n"
    child += "print(*sorted(set(sys.modules) - before))"
    run = subprocess.run(
        [sys.executable, "-c", child], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    *printed, added = run.stdout.splitlines()
    return set(added.split()), printed, run.stderr


# what a run loads for checks that read the counters alone
COUNTERS = {"qgordon", "qgordon.config", "qgordon.harness", "qgordon.counting", "qgordon._packing"}


@pytest.mark.parametrize(
    "load, package",
    [
        ("import qgordon.cli", {"qgordon", "qgordon.config", "qgordon.cli"}),
        # python -m qgordon.cli --help
        (run_module_child(["--help"]), {"qgordon", "qgordon.config"}),
        # identities away from 2c = M run on the counters alone
        (
            run_module_child(["--checks", "identities", "--k", "2", "--d", "1", "--trunc-n", "5"]),
            COUNTERS,
        ),
        # 2c = M (regular): the product-defined counter reads triple_product
        (
            run_module_child(
                ["--checks", "identities", "--k", "2", "--d", "2", "--flavor", "regular",
                 "--trunc-n", "5"]
            ),
            COUNTERS | {"qgordon.series"},
        ),
        (
            run_module_child(["--checks", "recurrences", "--k", "2", "--d", "1", "--trunc-n", "5"]),
            COUNTERS,
        ),
        # gf-match builds the constructed series: every layer
        (
            run_module_child(
                ["--checks", "gf-match", "--k", "2", "--d", "1", "--trunc-n", "5", "--trunc-x", "2"]
            ),
            COUNTERS | LAYERS,
        ),
    ],
    ids=["import", "help", "run", "run-2c-equals-m", "run-recurrences", "run-gf-match"],
)
def test_cli_import_leaves_out_dataclasses_and_inspect(load, package):
    added = added_modules(load)[0]
    assert {m for m in added if m.split(".")[0] == "qgordon"} == package
    # json comes with reports_to_json, which a run without --out never calls
    assert not {"dataclasses", "inspect", "json"} & added


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--k", "3..2"], "configuration error: --k: expected N, N..M, or all; got '3..2'"),
        (["--checks", "foo"], "configuration error: unknown checks: foo"),
        (["--trunc-n", "0"], "configuration error: truncation orders must be positive"),
        (["--trunc-n", "abc"], "qgordon-verify: error: argument --trunc-n: invalid int value: 'abc'"),
        (["--out", "{tmp}/missing/r.json"], "configuration error: cannot write output: "),
    ],
    ids=["k-range", "checks", "trunc-n-0", "trunc-n-abc", "out-parent"],
)
def test_cli_config_error_loads_no_numerical_layer(argv, message, tmp_path):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    added, printed, stderr = added_modules(run_module_child(argv))
    assert printed == ["exit 2"]
    assert stderr.splitlines()[-1].startswith(message)
    assert not (LAYERS | {"qgordon.harness"}) & added
    assert "qgordon.config" in added


def test_config_names_have_one_definition():
    from qgordon import config, counting

    assert harness.CHECK_IDS is config.CHECK_IDS
    assert harness.ConfigError is config.ConfigError
    assert harness.SuiteConfig is config.SuiteConfig
    assert harness._grid is config._grid and harness._groups is config._groups
    assert counting.REGULAR is config.REGULAR and counting.OVER is config.OVER
    assert cli.ConfigError is config.ConfigError and cli.SuiteConfig is config.SuiteConfig
