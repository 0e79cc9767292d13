"""Every library name that perfbench/traced.py probes must exist.

A probe that finds nothing makes the traced benchmark run leave out a metric
that BENCHMARK.json declares.  traced.install is not called here, because it
rebinds library functions process-wide.
"""

import importlib.util
from pathlib import Path

from qgordon import _packing, counting, gseries, harness, series

TRACED_PY = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"

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
