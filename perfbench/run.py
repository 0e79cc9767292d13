"""Benchmark of the qgordon-verify command.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Every sample launches ``python -m qgordon.cli`` from this checkout's `src/`
as a fresh child process, one at a time (a closed loop of one caller), and
keeps launching whole samples until --seconds have passed (at least two, so
that the canonical report can be compared between runs).  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures, from outside the program, the end-to-end metrics
wall_s, setup_s, first_report_s and peak_rss_mb (medians over the samples).
--trace 1 instead runs each sample through perfbench/traced.py, which wraps
the library's layers in-process, and reports the per-layer metrics.

Each report is one operation; perfbench/oracle.py derives its expected
status from the stated conditions.  Seeded spot checks (perfbench/probe.py
against perfbench/reference.py) run outside the timed window.  A traceback,
a timeout or a missing program exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import reference
from oracle import OVER, REGULAR, Grid
from traced import TRACE_DONE_MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_LAUNCHES = 4  # per sample
MIN_SAMPLES = 2
RUN_BUDGET_S = 170  # every child is killed past this, so a run ends within 180 s


@dataclass(frozen=True)
class Workload:
    argv: tuple  # CLI arguments, besides --out
    grid: Grid  # what those arguments mean, stated independently


BOTH = (REGULAR, OVER)
WORKLOADS = {
    # the run a user types first: every default
    "cli-default": Workload((), Grid(oracle.CHECK_IDS, (2, 3), (1, 2), BOTH, 30, 10)),
    # the counter DP and congruence knapsack at depth; no two-variable series
    "identities-deep": Workload(
        ("--checks", "identities", "--trunc-n", "80"),
        Grid(("identities",), (2, 3), (1, 2), BOTH, 80, 10),
    ),
    # criteria 07/08: constructed_gf at many head-room truncations, x = 1 forms
    "x-one-grid": Workload(
        ("--checks", "gf-match,product-eval", "--k", "2..4", "--d", "1..4",
         "--trunc-n", "40", "--trunc-x", "10"),
        Grid(("gf-match", "product-eval"), (2, 3, 4), (1, 2, 3, 4), BOTH, 40, 10),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "first_report_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "packing.multiply_tables.calls": "count",
    "packing.multiply_tables.s": "s",
    "packing.slot_bits_for.s": "s",
    "packing.pack.s": "s",
    "packing.unpack.s": "s",
    "packing.bigmul.s": "s",
    "packing.packed_mbit": "Mbit",
    "packing.slot_bits.max": "bit",
    "packing.self_s": "s",
    "series.bimul.calls": "count",
    "series.bimul.s": "s",
    "series.invert_unit.calls": "count",
    "series.invert_unit.s": "s",
    "series.poch.calls": "count",
    "series.poch.s": "s",
    "series.triple_product.s": "s",
    "series.self_s": "s",
    "counting.count_table.calls": "count",
    "counting.dp.builds": "count",
    "counting.dp.s": "s",
    "counting.congruence_series.s": "s",
    "counting.mask_cache.entries": "count",
    "counting.self_s": "s",
    "gseries.summand_series.calls": "count",
    "gseries.summand_series.misses": "count",
    "gseries.summand_series.s": "s",
    "gseries.constructed_gf.s": "s",
    "gseries.enumerated_gf.s": "s",
    "gseries.recurrence_gf.s": "s",
    "gseries.product_forms.s": "s",
    "gseries.memo.entries": "count",
    "gseries.self_s": "s",
    **{f"harness.{check}.s": "s" for check in oracle.CHECK_IDS},
    "harness.reports": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s",
}


class RunFailure(Exception):
    """The program crashed, hung or is missing: the run has no result."""


@dataclass
class Launch:
    code: int
    wall_s: float
    first_line_s: float | None  # launch to the first complete stdout line
    marker_s: float | None  # launch to the traced run's end marker
    rss_mb: float
    stdout: str
    stderr: str


def launch(args: list, deadline: float) -> Launch:
    """Run `python ARGS` in the checkout root and measure it from outside."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    marker = TRACE_DONE_MARKER.encode()
    with open(OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err
        )
        try:
            data, first, marked = b"", None, None
            fd = proc.stdout.fileno()
            while True:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise RunFailure(f"timed out: python {' '.join(args)}")
                if not select.select([fd], [], [], left)[0]:
                    continue
                chunk = os.read(fd, 1 << 16)
                now = time.perf_counter() - start
                if not chunk:
                    break
                data += chunk
                if first is None and b"\n" in data:
                    first = now
                if marked is None and marker in data:
                    marked = now
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    raise RunFailure(f"timed out: python {' '.join(args)}")
                time.sleep(0.0005)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Launch(
        proc.returncode, wall, first, marked, usage.ru_maxrss / 1024,
        data.decode(errors="replace"), stderr,
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # make the run incorrect
    canonical: set = field(default_factory=set)


def read_reports(name: str, run: Launch, out_path: Path, tally: Tally) -> list:
    grid = WORKLOADS[name].grid
    if "Traceback (most recent call last)" in run.stderr or run.code not in (0, 1):
        raise RunFailure(f"{name}: exit code {run.code}\n{run.stderr[-2000:]}")
    try:
        reports = json.loads(out_path.read_text())
    except (OSError, ValueError) as exc:
        raise RunFailure(f"{name}: no readable report: {exc}") from None
    verdict = oracle.check_reports(grid, reports)
    tally.attempted += verdict.attempted
    tally.failed += verdict.failed
    for problem in verdict.problems[:5]:
        print(f"failed operation: {problem}")
    if run.code != oracle.expected_exit_code(grid):
        tally.problems.append(f"exit code {run.code}, expected {oracle.expected_exit_code(grid)}")
    tally.canonical.add(oracle.canonical_json(reports))
    return reports


def measure_setup(deadline: float) -> list:
    """Times from launch until the CLI has imported and parsed its arguments."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        run = launch(["-m", "qgordon.cli", "--help"], deadline)
        if run.code != 0 or "usage:" not in run.stdout:
            raise RunFailure(f"--help failed with exit code {run.code}\n{run.stderr[-2000:]}")
        times.append(run.wall_s)
    return times


def run_untraced(name: str, seconds: float, deadline: float, tally: Tally) -> dict:
    out_path = OUT / f"report-{name}.json"
    samples, setup = [], []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        setup += measure_setup(deadline)  # interleaved, so both see the same host
        out_path.unlink(missing_ok=True)
        run = launch(["-m", "qgordon.cli", *WORKLOADS[name].argv, "--out", str(out_path)], deadline)
        read_reports(name, run, out_path, tally)
        if run.first_line_s is None:
            raise RunFailure(f"{name}: nothing printed on stdout")
        samples.append(run)
    print(f"{name}: {len(samples)} samples, wall_s " + " ".join(f"{r.wall_s:.3f}" for r in samples))
    return {
        "wall_s": statistics.median(r.wall_s for r in samples),
        "setup_s": statistics.median(setup),
        "first_report_s": statistics.median(r.first_line_s for r in samples),
        "peak_rss_mb": statistics.median(r.rss_mb for r in samples),
    }


def run_traced(name: str, seconds: float, deadline: float, tally: Tally) -> dict:
    out_path = OUT / f"report-{name}.json"
    layers_path = OUT / f"layers-{name}.json"
    spans_path = OUT / f"spans-{name}.tsv"
    samples: list[dict] = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        out_path.unlink(missing_ok=True)
        args = [str(BENCH / "traced.py"), str(layers_path), str(spans_path), "--",
                *WORKLOADS[name].argv, "--out", str(out_path)]
        run = launch(args, deadline)
        reports = read_reports(name, run, out_path, tally)
        layers = json.loads(layers_path.read_text())
        metrics = dict(layers["metrics"])
        for check in oracle.CHECK_IDS:
            metrics[f"harness.{check}.s"] = sum(
                r.get("runtime_ms", 0) for r in reports if r["check_id"] == check
            ) / 1000
        metrics["harness.reports"] = len(reports)
        metrics["trace.wall_s"] = run.marker_s
        samples.append(metrics)
    for probe, reason in sorted(layers["absent"].items()):
        print(f"probe absent: {probe}: {reason}")
    print(f"{name}: {len(samples)} traced samples, {layers['spans']} spans in the last "
          f"(written to {spans_path.relative_to(ROOT)})")
    return {
        key: _median([s[key] for s in samples])
        for key in PER_LAYER_UNITS
        if all(key in s for s in samples)
    }


def _median(values: list):
    # counts stay whole numbers
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def spot_checks(name: str, seed: int, deadline: float) -> list:
    """Seeded checks of library values against perfbench/reference.py."""
    grid = WORKLOADS[name].grid
    rng = random.Random(f"{name}/{seed}")
    tuples = list(grid.tuples())
    plain = [  # s = 0 tuples whose congruence side is an ordinary product
        t for t in tuples
        if t[3] == 0 and oracle.identities_apply(*t) and not oracle.is_escape(*t)
        and not (t[4] == REGULAR and 2 * t[1] == 2 * t[0] + 2 - t[2])
    ]
    request = {"mult_totals": [], "x_one": []}
    expected = []  # (label, value) per mult_totals entry, in request order
    N, X = grid.trunc_n, grid.trunc_x
    if "identities" in grid.checks:
        for k, a, d, s, flavor in rng.sample(plain, 3):
            ns = sorted(rng.sample(range(N // 2, N + 1), 4))
            coeffs = reference.product_coefficients(k, a, d, flavor, N)
            request["mult_totals"].append([k, a, d, s, flavor, ns])
            expected.append([(f"knapsack {k, a, d, s, flavor} n={n}", coeffs[n]) for n in ns])
    for k, a, d, s, flavor in rng.sample(tuples, 3):
        ns = sorted(rng.sample(range(1, 13), 3))
        request["mult_totals"].append([k, a, d, s, flavor, ns])
        expected.append([
            (f"brute force {k, a, d, s, flavor} n={n}",
             reference.membership_count(k, a, d, s, flavor, n))
            for n in ns
        ])
    x_one = []
    if "gf-match" in grid.checks or "product-eval" in grid.checks:
        for k, a, d, s, flavor in rng.sample(plain, 3):
            request["x_one"].append([k, a, d, s, flavor, X, N])
            x_one.append(((k, a, d, s, flavor), reference.product_coefficients(k, a, d, flavor, N - X)))

    request_path = OUT / "probe-request.json"
    request_path.write_text(json.dumps(request))
    run = launch([str(BENCH / "probe.py"), str(request_path)], deadline)
    if run.code != 0:
        raise RunFailure(f"spot-check probe failed\n{run.stderr[-2000:]}")
    got = json.loads(run.stdout)
    problems = []
    for want, have in zip(expected, got["mult_totals"], strict=True):
        for (label, value), lib in zip(want, have, strict=True):
            if value != lib:
                problems.append(f"spot check {label}: library {lib}, reference {value}")
    for (tup, want), series in zip(x_one, got["x_one"], strict=True):
        summed = {}
        for row in series["rows"]:
            for i, c in enumerate(row):
                summed[i + series["q_offset"]] = summed.get(i + series["q_offset"], 0) + c
        have = [summed.get(j, 0) for j in range(N - X + 1)]
        if have != want or any(summed[j] for j in summed if j < 0):
            problems.append(f"spot check x = 1 of constructed_gf{tup} differs from the product")
    checked = sum(len(w) for w in expected) + len(x_one)
    print(f"{name}: {checked} seeded spot checks, {len(problems)} wrong")
    return problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    tally = Tally()
    tally.problems += spot_checks(name, seed, deadline)
    if trace:
        values = run_traced(name, seconds, deadline, tally)
        units = PER_LAYER_UNITS
    else:
        values = run_untraced(name, seconds, deadline, tally)
        units = END_TO_END_UNITS
    if len(tally.canonical) != 1:
        tally.problems.append("canonical report differs between runs")
    digest = hashlib.sha256(next(iter(tally.canonical)).encode()).hexdigest()[:16]
    print(f"{name}: canonical report sha256 {digest}")
    for problem in tally.problems:
        print(f"incorrect: {problem}")
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units if key in values}
    for key, m in metrics.items():
        print(f"{name}  {key:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"{name}  attempted {tally.attempted}, failed {tally.failed}")
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qgordon" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'qgordon'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            tally, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
            result["correct"] = result["correct"] and not tally.problems
            result["attempted"] += tally.attempted
            result["failed"] += tally.failed
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + key: m for key, m in metrics.items()})
    except RunFailure as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
