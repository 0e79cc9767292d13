"""Command-line front end for the verification suite.

    qgordon-verify --checks identities,gf-match --k 2..3 --d 1..2 \
        --flavor both --trunc-n 30 --trunc-x 10 --out report.json

Each report's line is written to stdout as soon as the report is computed,
in run order (group by group, one (flavor, k, d) at a time, each check over
the group's tuples), then the closure line and the summary.  The --out JSON
is the canonical record: every report in sorted order, written when the run
ends, under a temporary name beside --out that then replaces it, so a run
that stops early leaves a report already at --out as it was.  The --csv-dir
tables are written group by group during the run.  If stdout's reader goes
away (`| head`), the run still finishes, writes --out and --csv-dir, and
exits with its usual code.

Exit codes: 0 all checks passed (or were skipped), 1 at least one check
failed, 2 configuration error, or an output (--out, --csv-dir, stdout) that
cannot be written, before or during the run ("cannot write output: ...",
no traceback).  The arguments are parsed and checked, and the outputs
opened, before any numerical layer is imported: --help and a configuration
error load only the config module.  The run then loads only the layers its
checks use (see harness): recurrences and identities need counting and
_packing alone, and series too once an identities group reaches a
product-defined congruence counter; gf-consistency, summand-eqs, gf-match,
product-eval and --csv-dir load gseries and series as well.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Optional

from .config import CHECK_IDS, OVER, REGULAR, ConfigError, SuiteConfig, _grid


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


def partial_path(out: str) -> str:
    """The temporary name that the --out report is written under: beside the
    file it replaces (through any symlink), so that one rename puts it there."""
    return f"{os.path.realpath(out)}.{os.getpid()}.partial"


def open_outputs(args):
    """Create the --csv-dir directory and open the file the --out report is
    written to.

    Done before any computation, so that an unusable path (a directory or a
    missing parent for --out, a regular file on the way for --csv-dir) is a
    configuration error and not a traceback after the whole run.  Where
    --out is a regular file, or nothing yet, the file opened is
    partial_path(--out), which main renames over --out once the report is
    written and removes if the run stops first; anything else there (a
    device, a pipe) is written in place.  Returns the open file, or None.
    """
    try:
        if args.csv_dir:
            Path(args.csv_dir).mkdir(parents=True, exist_ok=True)
        if not args.out:
            return None
        in_place = os.path.exists(args.out) and not os.path.isfile(args.out)
        return open(args.out if in_place else partial_path(args.out), "w")
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


def _write_line(text: str) -> None:
    """Write one line to stdout in a single write, and flush it.

    A reader that has gone away (a closed pipe) is not an error: stdout is
    pointed at os.devnull, so that this and later lines, and the flush at
    exit, are dropped and the run goes on.
    """
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        out = open_outputs(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # the numerical layers load only once the configuration is known to be good
    from . import harness

    partial = partial_path(args.out) if args.out else None
    try:
        with out or contextlib.nullcontext():
            reports = harness.run_suite(
                config,
                on_report=lambda report: _write_line(render_line(report)),
                csv_dir=args.csv_dir or None,
            )
            counts = {
                status: sum(1 for r in reports if r.status == status)
                for status in ("pass", "fail", "skipped")
            }
            _write_line(
                f"{counts['pass']} passed, {counts['fail']} failed, "
                f"{counts['skipped']} skipped"
            )
            if out is not None:
                out.write(harness.reports_to_json(reports) + "\n")
        if partial and os.path.exists(partial):
            os.replace(partial, os.path.realpath(args.out))
        if args.csv_dir:
            # a counts and a series file per tuple of the grid
            _write_line(f"wrote {2 * len(list(_grid(config)))} CSV files to {args.csv_dir}")
    except OSError as exc:
        # a write that fails mid-run (a full disk, a CSV name taken by a
        # directory) is not a failed check
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    finally:
        # a report that never replaced --out is dropped, and --out kept
        if partial:
            with contextlib.suppress(FileNotFoundError):
                os.remove(partial)
    return harness.exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
