"""Command-line interface: parsing, exit codes, artifacts."""

import json

import pytest

from qgordon import cli
from qgordon.cli import main, parse_checks, parse_range
from qgordon.harness import CHECK_IDS, ConfigError


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

    monkeypatch.setattr(cli, "run_suite", no_run)
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
