"""Every library name that perfbench/traced.py probes must exist.

A probe that finds nothing makes the traced benchmark run leave out a metric
that BENCHMARK.json declares.  traced.install is not called in this process,
because it rebinds library functions process-wide; the end-to-end test runs
traced.py as a child process instead.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from qgordon import _packing, counting, gseries, harness, series

ROOT = Path(__file__).resolve().parent.parent
TRACED_PY = ROOT / "perfbench" / "traced.py"

MODULES = {
    "_packing": _packing,
    "series": series,
    "counting": counting,
    "gseries": gseries,
    "harness": harness,
}


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    traced = load_traced()
    for group, targets in traced.TRACED.items():
        for mod_name, dotted in targets:
            assert traced._resolve(MODULES[mod_name], dotted)[1] is not None, (group, dotted)


def test_memo_probes_find_dicts():
    assert isinstance(gseries._summand_cache, dict)
    assert isinstance(counting._mask_cache, dict)
    assert any(
        name.startswith("_") and name.endswith("_cache") and isinstance(value, dict)
        for name, value in vars(gseries).items()
    )


def test_memo_probes_keep_their_dicts_through_a_run():
    # traced.install captures the summand dict once: a run that rebound it,
    # instead of emptying it in place, would make the misses read 0
    summands, masks = gseries._summand_cache, counting._mask_cache
    harness.run_suite(harness.SuiteConfig(ks=(2,), ds=(1, 2), trunc_order=12, x_order=4))
    assert gseries._summand_cache is summands
    assert counting._mask_cache is masks


def test_traced_run_reports_every_layer_metric(tmp_path):
    # the harness.* metrics and trace.wall_s are added by perfbench/run.py,
    # not by traced.py
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {
        m["name"]
        for m in declared
        if not m["name"].startswith("harness.") and m["name"] != "trace.wall_s"
    }
    layers = tmp_path / "LAYERS.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    cli_args = ["--k", "2", "--d", "1..2", "--trunc-n", "12", "--trunc-x", "4"]
    cli_args += ["--out", str(tmp_path / "report.json")]
    cmd = [sys.executable, str(TRACED_PY), str(layers), str(tmp_path / "SPANS.tsv"), "--"]
    run = subprocess.run(
        cmd + cli_args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode in (0, 1), run.stderr  # 1: the escape tuples fail by design
    result = json.loads(layers.read_text())
    assert result["absent"] == {}
    assert expected <= set(result["metrics"]), sorted(expected - set(result["metrics"]))
    # the harness layer is rooted at run_suite: the CLI must run the suite through it
    spans = (tmp_path / "SPANS.tsv").read_text().splitlines()
    assert [line.split("\t")[1] for line in spans[1:]].count("harness.run_suite") == 1
