"""qgordon: exact q-series engine and partition-identity verification harness.

Layers
------
series     exact truncated power series in q and (x, q), Pochhammer products,
           triple products, bilateral theta sums
counting   partition/overpartition counters: frequency-window DP (parts x
           weight tables and weight-only totals), brute-force oracle,
           congruence-side counters, recurrence verification
gseries    the closed-form summand families and generating-function routes,
           their functional equations, and the x = 1 product evaluation
harness    batch driver producing machine-readable CheckReports
cli        the qgordon-verify command
"""

from .counting import (
    OVER,
    REGULAR,
    CountParams,
    FreqSolution,
    congruence_series,
    count_cong,
    count_mult,
    count_mult_brute,
    count_mult_total,
    count_mult_totals,
    count_table,
    iter_freq_solutions,
    satisfies_mult_conditions,
    verify_recurrence,
)
from .gseries import (
    alpha_series,
    beta_series,
    bridging_identity_holds,
    constructed_gf,
    enumerated_gf,
    needed_trunc_order,
    recurrence_gf,
    verify_gf_functional_equation,
    verify_summand_recurrences,
    x_one_check,
    x_one_product_forms,
)
from .harness import (
    CheckReport,
    ConfigError,
    SuiteConfig,
    check_main_identity,
    exit_code,
    reports_to_json,
    run_suite,
)
from .series import (
    BiSeries,
    DomainError,
    OrdinarinessError,
    PowerSeries,
    TruncationMismatch,
    eval_x_one,
    poch_finite,
    poch_inf,
    q_poch_finite,
    q_poch_inf,
    theta_bilateral,
    triple_product,
    write_coefficients_csv,
)

__version__ = "0.1.0"
