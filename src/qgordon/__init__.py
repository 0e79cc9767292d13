"""qgordon: exact q-series engine and partition-identity verification harness.

Layers
------
config     the check ids, the two flavors, SuiteConfig and its grid (standard
           library only)
_packing   Kronecker-substitution kernels, the in-place row primitives and
           DomainError (standard library only)
series     exact truncated power series in q and (x, q), Pochhammer products,
           triple products, bilateral theta sums
counting   partition/overpartition counters: frequency-window DP (parts x
           weight tables and weight-only totals), brute-force oracle,
           congruence-side counters, recurrence verification, the
           applicability conditions (on _packing and config alone)
gseries    the closed-form summand families and generating-function routes,
           their functional equations, and the x = 1 product evaluation
harness    batch driver producing machine-readable CheckReports
cli        the qgordon-verify command

Importing the package loads no layer.  Each name below, and each layer, is
imported from its defining module the first time it is used (PEP 562), so
``from qgordon import triple_product`` loads series and _packing only.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("_packing", "cli", "config", "counting", "gseries", "harness", "series")

# defining module -> the names the package exports from it
_EXPORTS = {
    "_packing": ("DomainError",),
    "config": ("OVER", "REGULAR", "ConfigError", "SuiteConfig"),
    "counting": (
        "CountParams",
        "FreqSolution",
        "congruence_series",
        "count_cong",
        "count_mult",
        "count_mult_brute",
        "count_mult_total",
        "count_mult_totals",
        "count_table",
        "iter_freq_solutions",
        "satisfies_mult_conditions",
        "verify_recurrence",
    ),
    "gseries": (
        "alpha_series",
        "beta_series",
        "bridging_identity_holds",
        "constructed_gf",
        "enumerated_gf",
        "needed_trunc_order",
        "recurrence_gf",
        "verify_gf_functional_equation",
        "verify_summand_recurrences",
        "x_one_check",
        "x_one_product_forms",
    ),
    "harness": (
        "CheckReport",
        "check_main_identity",
        "exit_code",
        "reports_to_json",
        "run_suite",
    ),
    "series": (
        "BiSeries",
        "OrdinarinessError",
        "PowerSeries",
        "TruncationMismatch",
        "eval_x_one",
        "poch_finite",
        "poch_inf",
        "q_poch_finite",
        "q_poch_inf",
        "theta_bilateral",
        "triple_product",
        "write_coefficients_csv",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
