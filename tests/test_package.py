"""The package namespace: every exported name resolves lazily, from its
defining module, and importing one name loads only the layers it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qgordon
from qgordon import config, counting, gseries, harness, series

SRC = Path(__file__).resolve().parent.parent / "src"

# the names `from qgordon import ...` has always offered, by defining module
EXPORTS = {
    config: ["OVER", "REGULAR", "ConfigError", "SuiteConfig"],
    counting: [
        "CountParams", "FreqSolution", "congruence_series", "count_cong", "count_mult",
        "count_mult_brute", "count_mult_total", "count_mult_totals", "count_table",
        "iter_freq_solutions", "satisfies_mult_conditions", "verify_recurrence",
    ],
    gseries: [
        "alpha_series", "beta_series", "bridging_identity_holds", "constructed_gf",
        "enumerated_gf", "needed_trunc_order", "recurrence_gf",
        "verify_gf_functional_equation", "verify_summand_recurrences", "x_one_check",
        "x_one_product_forms",
    ],
    harness: ["CheckReport", "check_main_identity", "exit_code", "reports_to_json", "run_suite"],
    series: [
        "BiSeries", "DomainError", "OrdinarinessError", "PowerSeries", "TruncationMismatch",
        "eval_x_one", "poch_finite", "poch_inf", "q_poch_finite", "q_poch_inf",
        "theta_bilateral", "triple_product", "write_coefficients_csv",
    ],
}
NAMES = sorted(n for names in EXPORTS.values() for n in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_defining_modules_object(module, name):
    assert getattr(qgordon, name) is getattr(module, name)


def test_all_and_dir_list_the_exports():
    assert sorted(qgordon.__all__) == NAMES
    listed = dir(qgordon)
    assert set(NAMES) <= set(listed)
    assert {"harness", "series", "config", "cli", "__version__"} <= set(listed)
    assert qgordon.__version__ == "0.1.0"


def test_layers_resolve_as_attributes():
    assert qgordon.harness is harness
    assert qgordon.config is config


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        qgordon.bogus
    with pytest.raises(ImportError):
        exec("from qgordon import bogus", {})


def test_one_name_loads_only_its_layers():
    child = "import sys\nbefore = set(sys.modules)\nfrom qgordon import triple_product\n"
    child += "print(*sorted(m for m in set(sys.modules) - before if m.startswith('qgordon')))"
    run = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["qgordon", "qgordon._packing", "qgordon.series"]


def test_domain_error_and_row_primitives_have_one_definition():
    # defined in _packing, the bottom layer, and importable from series and counting
    from qgordon import _packing

    assert series.DomainError is counting.DomainError is _packing.DomainError
    assert series.mul_binomial is counting.mul_binomial is _packing.mul_binomial
    assert series.div_binomial is counting.div_binomial is _packing.div_binomial
