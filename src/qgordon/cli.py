"""Command-line front end for the verification suite.

    qgordon-verify --checks identities,gf-match --k 2..3 --d 1..2 \
        --flavor both --trunc-n 30 --trunc-x 10 --out report.json

Exit codes: 0 all checks passed (or were skipped), 1 at least one check
failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import Optional

from .counting import OVER, REGULAR
from .harness import (
    CHECK_IDS,
    ConfigError,
    SuiteConfig,
    exit_code,
    export_csv_tables,
    reports_to_json,
    run_suite,
)


def parse_range(text: str, name: str, allow_all: bool = False):
    """Parse "3", "2..5", or (where allowed) "all"."""
    text = text.strip()
    if text.lower() == "all":
        if allow_all:
            return None
        raise ConfigError(f"--{name} does not accept 'all'")
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise ConfigError(f"--{name}: expected N, N..M, or all; got {text!r}") from None


def parse_checks(text: str):
    """Parse a comma-separated check list.  "all" expands to every check id
    and the other names are kept, so that SuiteConfig rejects an unknown one."""
    names = [t.strip() for t in text.split(",") if t.strip()]
    return tuple(dict.fromkeys(c for t in names for c in (CHECK_IDS if t == "all" else (t,))))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgordon-verify",
        description="Verify partition/overpartition identities coefficient by coefficient.",
    )
    parser.add_argument(
        "--checks",
        default="all",
        help=f"comma-separated subset of {', '.join(CHECK_IDS)}, or all",
    )
    parser.add_argument("--k", default="2..3", help="range of k (N or N..M)")
    parser.add_argument("--a", default="all", help="range of a, or all valid")
    parser.add_argument("--d", default="1..2", help="range of d (N or N..M)")
    parser.add_argument("--s", default="all", help="range of s, or all valid")
    parser.add_argument(
        "--flavor",
        default="both",
        choices=["regular", "over", "both"],
        help="partition flavor to sweep",
    )
    parser.add_argument("--trunc-n", type=int, default=30, help="q-truncation order N")
    parser.add_argument("--trunc-x", type=int, default=10, help="x-truncation order X")
    parser.add_argument(
        "--alt-condition",
        action="store_true",
        help="use the corrected side condition 2(a+s) != 2k+2-d for the identities",
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--csv-dir", default=None, help="export coefficient/count CSVs here")
    return parser


def config_from_args(args) -> SuiteConfig:
    flavors = {
        "regular": (REGULAR,),
        "over": (OVER,),
        "both": (REGULAR, OVER),
    }[args.flavor]
    return SuiteConfig(
        checks=parse_checks(args.checks),
        ks=parse_range(args.k, "k"),
        ds=parse_range(args.d, "d"),
        a_values=parse_range(args.a, "a", allow_all=True),
        s_values=parse_range(args.s, "s", allow_all=True),
        flavors=flavors,
        trunc_order=args.trunc_n,
        x_order=args.trunc_x,
        alt_condition=args.alt_condition,
    )


def open_outputs(args):
    """Create the --csv-dir directory and open the --out file for writing.

    Done before any computation, so that an unusable path (a directory or a
    missing parent for --out, a regular file on the way for --csv-dir) is a
    configuration error and not a traceback after the whole run.  Returns
    the open --out file, or None.
    """
    try:
        if args.csv_dir:
            Path(args.csv_dir).mkdir(parents=True, exist_ok=True)
        return open(args.out, "w") if args.out else None
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def render_line(report) -> str:
    p = report.params
    bits = [f"{k}={p[k]}" for k in ("k", "a", "d", "s") if p.get(k) is not None]
    if p.get("flavor"):
        bits.append(p["flavor"])
    tag = {"pass": "PASS", "fail": "FAIL", "skipped": "skip"}[report.status]
    line = f"[{tag}] {report.check_id:<15} {' '.join(bits)}"
    if report.status == "skipped":
        line += f"  ({report.reason})"
    elif report.status == "fail":
        fm = report.first_mismatch
        line += f"  first mismatch at n={fm['n']}: {fm['lhs']} vs {fm['rhs']}"
    return line


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        out = open_outputs(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    with out or contextlib.nullcontext():
        reports = run_suite(config)
        for report in reports:
            print(render_line(report))
        counts = {
            status: sum(1 for r in reports if r.status == status)
            for status in ("pass", "fail", "skipped")
        }
        print(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped"
        )
        if out is not None:
            out.write(reports_to_json(reports) + "\n")
    if args.csv_dir:
        written = export_csv_tables(args.csv_dir, config)
        print(f"wrote {len(written)} CSV files to {args.csv_dir}")
    return exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
