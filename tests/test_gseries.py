"""The constructed series: initial conditions, recurrences, identifications."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from qgordon import _packing, gseries
from qgordon.counting import OVER, REGULAR, CountParams, count_mult
from qgordon.harness import SuiteConfig, run_suite
from qgordon.gseries import (
    alpha_series,
    beta_series,
    bridging_identity_holds,
    constructed_gf,
    enumerated_gf,
    identification_conditions,
    identification_grounded,
    needed_trunc_order,
    recurrence_gf,
    summand_series,
    verify_gf_functional_equation,
    verify_summand_recurrences,
    x_one_check,
    x_one_exact_bound,
    x_one_product_forms,
)
from qgordon.series import (
    BiSeries,
    DomainError,
    OrdinarinessError,
    PowerSeries,
    TruncationMismatch,
    div_binomial,
    eval_x_one,
    poch_inf,
    q_poch_finite,
    q_poch_inf,
    sum_x_rows,
    theta_bilateral,
    theta_laurent,
    triple_product,
)

X, N = 6, 24


def rows_equal_one(series):
    return list(series.as_ordinary().rows[0]) == [1] + [0] * series.trunc_order


# ---------------------------------------------------------------------------
# summand families
# ---------------------------------------------------------------------------


def test_alpha_at_x_zero_is_one():
    # the x^0 row of the n = 0 summand is the constant series 1, both flavors
    for flavor in (REGULAR, OVER):
        for k, d in ((2, 1), (3, 2), (4, 4), (5, 3)):
            for s in range(d):
                assert rows_equal_one(alpha_series(k, d, s, 0, flavor, X, N)), (
                    flavor,
                    k,
                    d,
                    s,
                )


def test_alpha_is_minus_beta_at_s_zero_and_2s_d():
    for flavor in (REGULAR, OVER):
        for n in range(3):
            for k, d, s in ((3, 2, 0), (4, 3, 0), (4, 4, 2), (3, 2, 1)):
                if 2 * s % d != 0:
                    continue
                al = alpha_series(k, d, s, n, flavor, X, N)
                be = beta_series(k, d, s, n, flavor, X, N)
                assert al.first_difference(-be) is None, (flavor, k, d, s, n)


def test_alpha_beta_differ_when_2s_not_zero_mod_d():
    al = alpha_series(4, 3, 1, 1, REGULAR, X, N)
    be = beta_series(4, 3, 1, 1, REGULAR, X, N)
    assert al.first_difference(-be) is not None


def test_d_one_summand_collapses_to_plain_quotient():
    # at d = 1, s = 0 the prefactor and bracket cancel, leaving
    # (-1)^n x^(k n) q^((2k+1) n(n+1)/2) / ((q; q)_n (x q^(n+1); q)_inf)
    k = 3
    for n in range(3):
        direct = poch_inf(1, 1, n + 1, 1, X, N).invert_unit()
        direct = direct * BiSeries.from_power_series(
            q_poch_finite(1, 1, 1, n, N).invert_unit(), X
        )
        direct = direct.times_monomial(
            1 if n % 2 == 0 else -1, k * n, (2 * k + 1) * n * (n + 1) // 2
        )
        assert alpha_series(k, 1, 0, n, REGULAR, X, N) == direct


def test_summand_minus_one_is_zero():
    assert alpha_series(3, 2, 1, -1, REGULAR, X, N).is_zero()
    assert beta_series(3, 2, 1, -1, OVER, X, N).is_zero()


def reference_summand(kind, k, d, s, n, flavor, x_order, trunc_order):
    """The summand as a product of BiSeries factors, each built on its own:
    the prefactor ((xq)^d; q^d)_inf / (xq; q)_inf, the tail
    1/((x q^(n+1))^d; q^d)_inf, the x-free factors, the monomial and the
    bracket over 1 - (xq)^d.  Independent of the q-difference recurrence."""
    if n == -1:
        return BiSeries.zero(x_order, trunc_order)
    shift = n * s if kind == "alpha" else n * (d - s)
    X, big = x_order, trunc_order + shift
    one = BiSeries.one(X, big)

    def xq(e):
        return BiSeries.monomial(1, e, e, X, big)

    core = poch_inf(1, d, d, d, X, big) * poch_inf(1, 1, 1, 1, X, big).invert_unit()
    core = core * poch_inf(1, d, (n + 1) * d, d, X, big).invert_unit()
    core = core * BiSeries.from_power_series(q_poch_finite(1, d, d, n, big).invert_unit(), X)
    if flavor == OVER:
        core = core * BiSeries.from_power_series(q_poch_finite(-1, 1, 1, n, big), X)
        core = core * poch_inf(-1, 1, n + 1, 1, X, big)
    modulus = 2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d
    core = core.times_monomial((-1) ** n, (k + 1 - d) * n, modulus * n * (n + 1) // 2)
    qdn = BiSeries.monomial(1, 0, d * n, X, big)
    if kind == "alpha":
        bracket = qdn * xq(d - s) * (one - xq(s)) + (one - xq(d - s))
    else:
        bracket = (one - xq(s)) + qdn * xq(s) * (one - xq(d - s))
    out = core * bracket * (one - xq(d)).invert_unit()
    if kind == "beta":
        out = -out
    return out.times_monomial(1, 0, -shift)


@st.composite
def summand_instances(draw):
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, k))
    return (
        draw(st.sampled_from(("alpha", "beta"))),
        k,
        d,
        draw(st.integers(0, d - 1)),
        draw(st.integers(-1, 3)),
        draw(st.sampled_from((REGULAR, OVER))),
        draw(st.integers(0, 6)),
        draw(st.integers(0, 25)),
    )


@settings(max_examples=150, deadline=None)
@given(summand_instances())
def test_summand_matches_product_reference(instance):
    # compare with ==, not rows: the two constructions may pick different q-offsets
    assert summand_series(*instance) == reference_summand(*instance)


def test_summand_miss_makes_no_kernel_call(monkeypatch):
    calls = []
    multiply = _packing.multiply_tables

    def counted(*args):
        calls.append(args)
        return multiply(*args)

    monkeypatch.setattr(_packing, "multiply_tables", counted)
    monkeypatch.setattr(gseries, "_summand_cache", {})
    for kind in ("alpha", "beta"):
        for flavor in (REGULAR, OVER):
            summand_series(kind, 4, 3, 1, 2, flavor, 8, 40)
    assert len(gseries._summand_cache) == 4
    assert not calls
    BiSeries.one(1, 4) * BiSeries.one(1, 4)  # the counter does see products
    assert len(calls) == 1


@settings(max_examples=100, deadline=None)
@given(summand_instances(), st.integers(1, 12))
def test_summand_served_from_a_deeper_build(instance, extra):
    *family, trunc_order = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gseries, "_summand_cache", {})
        summand_series(*family, trunc_order + extra)
        got = summand_series(*family, trunc_order)
        mp.setattr(gseries, "_summand_cache", {})
        fresh = summand_series(*family, trunc_order)
    assert got.trunc_order == trunc_order
    assert got == fresh == reference_summand(*instance)


def test_a_sweep_builds_each_summand_family_once(monkeypatch):
    built = []
    build = gseries._build_summand

    def counted(*args):
        built.append(args[:-1])  # the family: every argument but the truncation
        return build(*args)

    monkeypatch.setattr(gseries, "_summand_cache", {})
    monkeypatch.setattr(gseries, "_build_summand", counted)
    for k, d, s, flavor in ((3, 2, 1, REGULAR), (4, 4, 3, REGULAR), (4, 2, 0, OVER)):
        for a in range(1, k + 1):
            constructed_gf(k, a, d, s, flavor, 10, 40, require_ordinary=False)
            x_one_check(k, a, d, s, flavor, 10, 40)
    assert built
    assert len(built) == len(set(built)) == len(gseries._summand_cache)


# ---------------------------------------------------------------------------
# the constructed generating function
# ---------------------------------------------------------------------------


def reference_summand_span(k, d, s, a, flavor, x_order, trunc_order, at_xq, mono_x, mono_q):
    """The G-summand sum folded with BiSeries.__add__, one shifted and
    substituted summand at a time: the oracle for the in-place _sum_terms."""
    modulus = 2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d
    n_monotone = max(s + a, d - s - a, 1) // modulus + 1
    total = BiSeries.zero(x_order, trunc_order)
    n = 0
    while True:
        t_alpha = mono_q - n * a
        t_beta = mono_q + (n + 1 + (1 if at_xq else 0)) * a
        base = modulus * n * (n + 1) // 2
        minq_alpha = base - n * s + t_alpha
        minq_beta = base - n * (d - s) + t_beta
        if (k + 1 - d) * n + mono_x + min(0, a) > x_order:
            break
        if n >= n_monotone and minq_alpha > trunc_order and minq_beta > trunc_order:
            break
        if (k + 1 - d) * n + mono_x <= x_order and minq_alpha <= trunc_order:
            f = alpha_series(k, d, s, n, flavor, x_order, trunc_order - min(t_alpha, 0))
            if at_xq:
                f = f.x_to_xq()
            total = total + f.times_monomial(1, mono_x, t_alpha)
        if (k + 1 - d) * n + mono_x + a <= x_order and minq_beta <= trunc_order:
            f = beta_series(k, d, s, n, flavor, x_order, trunc_order - min(t_beta, 0))
            if at_xq:
                f = f.x_to_xq()
            total = total + f.times_monomial(1, mono_x + a, t_beta)
        n += 1
    return total


@st.composite
def span_instances(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, k))
    a = draw(st.integers(-2, k + 1))
    return (
        k,
        d,
        draw(st.integers(0, d - 1)),
        a,
        draw(st.sampled_from((REGULAR, OVER))),
        draw(st.integers(0, 6)),
        draw(st.integers(0, 20)),
        draw(st.booleans()),
        draw(st.integers(max(0, -a), 3)),
        draw(st.integers(-4, 4)),
    )


@settings(max_examples=150, deadline=None)
@given(span_instances(), st.sampled_from((1, -1)))
def test_summed_span_matches_add_fold(instance, coeff):
    X, N = instance[5], instance[6]
    got = gseries._sum_terms(gseries._span_terms(*instance, coeff=coeff), X, N).series()
    want = reference_summand_span(*instance)
    assert got == (want if coeff == 1 else -want)


def test_sum_terms_accepts_deeper_terms_only(monkeypatch):
    monkeypatch.setattr(gseries, "_summand_cache", {})
    f19 = summand_series("alpha", 3, 2, 1, 2, REGULAR, 6, 19, packed=True)
    monkeypatch.setattr(gseries, "_summand_cache", {})
    f = summand_series("alpha", 3, 2, 1, 2, REGULAR, 6, 20, packed=True)
    exact = gseries._sum_terms([(f19, 1, 0, -4, True)], 6, 15).series()
    assert gseries._sum_terms([(f, 1, 0, -4, True)], 6, 15).series() == exact
    assert gseries._sum_terms([(f, -1, 1, -4, False)], 6, 16).trunc_order == 16
    with pytest.raises(TruncationMismatch):
        gseries._sum_terms([(f, 1, 0, -4, True)], 6, 17)
    with pytest.raises(TruncationMismatch):
        gseries._sum_terms([(f, 1, 0, 0, False)], 6, 21)


def test_default_summand_sweep_builds_each_family_once(monkeypatch):
    built = []
    build = gseries._build_summand

    def counted(*args):
        built.append(args[:-1])
        return build(*args)

    monkeypatch.setattr(gseries, "_summand_cache", {})
    monkeypatch.setattr(gseries, "_build_summand", counted)
    reports = run_suite(SuiteConfig(checks=("summand-eqs",)))
    assert all(r.status == "pass" for r in reports if r.check_id == "summand-eqs")
    assert built
    assert len(built) == len(set(built)) == len(gseries._summand_cache)


# ---------------------------------------------------------------------------
# the list-of-rows builder and sum: oracles of the packed ones
# ---------------------------------------------------------------------------


def list_build_summand(kind, k, d, s, n, flavor, x_order, trunc_order) -> BiSeries:
    """gseries._build_summand on lists of coefficients: the same x-row
    recurrence, bracket and division by 1 - (xq)^d, each a row sweep
    (div_binomial), with no packing and no width."""
    over = flavor == OVER
    shift = n * s if kind == "alpha" else n * (d - s)
    q0 = (2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d) * n * (n + 1) // 2
    top = trunc_order + shift - q0
    x0 = (k + 1 - d) * n
    if top < 0 or x0 > x_order:
        return BiSeries.zero(x_order, trunc_order)
    h = [list(q_poch_finite(-1, 1, 1, n if over else 0, top).coeffs)]
    for j in range(1, n + 1):
        div_binomial(h, 0, d * j)
    r_terms = [(1, -1, 1), (d, -1, d * (n + 1)), (d + 1, 1, d * (n + 1) + 1)]
    l_terms = [(d, -1, d)]
    if over:
        l_terms += [(1, 1, n + 1), (d + 1, -1, d + n + 1)]
    for m in range(1, x_order - x0 + 1):
        acc = [0] * (top + 1)
        for j, c, e in r_terms:
            if j <= m:
                acc[e:] = [u - c * v for u, v in zip(acc[e:], h[m - j])]
        for j, c, e in l_terms:
            if j <= m:
                e += m - j
                acc[e:] = [u + c * v for u, v in zip(acc[e:], h[m - j])]
        div_binomial([acc], 0, m)
        h.append(acc)
    qdn = d * n
    if kind == "alpha":
        bracket = [(1, 0, 0), (-1, d - s, d - s), (1, d - s, qdn + d - s), (-1, d, qdn + d)]
    else:
        bracket = [(1, 0, 0), (-1, s, s), (1, s, qdn + s), (-1, d, qdn + d)]
    sign = (1 if n % 2 == 0 else -1) * (1 if kind == "alpha" else -1)
    out = [[0] * (top + 1) for _ in range(x_order + 1)]
    for c, a, e in bracket:
        c *= sign
        for m, row in enumerate(h[: max(x_order - x0 - a + 1, 0)]):
            dst = out[x0 + a + m]
            dst[e:] = [u + c * v for u, v in zip(dst[e:], row)]
    div_binomial(out, d, d)
    return BiSeries(out, x_order, trunc_order, q0 - shift)


def list_sum_terms(terms, x_order, trunc_order) -> BiSeries:
    """gseries._sum_terms on BiSeries terms, added in place into lists."""
    off = min([0] + [f.q_offset + mono_q for f, _, _, mono_q, _ in terms])
    rows = [[0] * (trunc_order - off + 1) for _ in range(x_order + 1)]
    for f, coeff, mono_x, mono_q, at_xq in terms:
        assert f.trunc_order + min(mono_q, 0) >= trunc_order
        base = f.q_offset + mono_q - off
        for m, src in enumerate(f.rows[: max(x_order + 1 - mono_x, 0)]):
            e = base + (m if at_xq else 0)
            dst = rows[m + mono_x]
            dst[e:] = [u + coeff * v for u, v in zip(dst[e:], src)]
    return BiSeries(rows, x_order, trunc_order, off)


@st.composite
def wide_summand_families(draw):
    """A family with n <= 3, k <= 5, on a window (18 x-rows past its first,
    101 q-exponents) whose derived slot width exceeds 64 bits."""
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, k))
    s = draw(st.integers(0, d - 1))
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(("alpha", "beta")))
    flavor = draw(st.sampled_from((REGULAR, OVER)))
    shift = n * s if kind == "alpha" else n * (d - s)
    q0 = (2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d) * n * (n + 1) // 2
    return kind, k, d, s, n, flavor, (k + 1 - d) * n + 18, q0 - shift + 100


@settings(max_examples=60, deadline=None)
@given(wide_summand_families())
def test_packed_build_matches_list_oracle_past_64_bits(family):
    packed = gseries._build_summand(*family)
    want = list_build_summand(*family)
    assert packed.bits > 64
    assert packed.series() == want
    largest = max(abs(c) for row in want.rows for c in row)
    assert packed.bound >= largest
    # a width too narrow for the largest coefficient breaks the comparison
    narrow = 8 * ((largest.bit_length() - 1) // 8)
    assume(narrow >= 8)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_packing, "slot_width", lambda bound: narrow)
        squeezed = gseries._build_summand(*family)
    assert squeezed.bits == narrow
    assert squeezed.series() != want


@settings(max_examples=60, deadline=None)
@given(span_instances(), st.sampled_from((1, -1)))
def test_packed_sums_match_list_oracle(instance, coeff):
    X, N = instance[5], instance[6]
    lhs = gseries._span_terms(*instance, coeff=coeff)
    rhs = lhs[:-1]

    def as_lists(terms):
        return list_sum_terms([(f.series(), *rest) for f, *rest in terms], X, N)

    assert gseries._sum_terms(lhs, X, N).series() == as_lists(lhs)
    got = gseries._first_difference(*gseries._sums([lhs, rhs], X, N))
    assert got == as_lists(lhs).first_difference(as_lists(rhs))
    assert gseries._first_difference(*gseries._sums([lhs, lhs], X, N)) is None


def test_constructed_gf_makes_no_add_call(monkeypatch):
    def no_add(self, other):
        raise AssertionError("constructed_gf added two BiSeries")

    monkeypatch.setattr(BiSeries, "__add__", no_add)
    for k, a, d, s, flavor in ((3, 2, 2, 1, REGULAR), (4, 4, 4, 3, REGULAR), (3, 3, 2, 1, OVER)):
        constructed_gf(k, a, d, s, flavor, 8, 30, require_ordinary=False)
        verify_gf_functional_equation(k, a, d, s, flavor, 5, 16)



def test_constructed_gf_at_x_zero_is_one():
    # setting x = 0 keeps only the x^0 row, which must be the constant 1
    for flavor in (REGULAR, OVER):
        for k, a, d, s in ((2, 2, 1, 0), (3, 2, 2, 1), (4, 1, 3, 2)):
            g = constructed_gf(k, a, d, s, flavor, X, N, require_ordinary=False)
            lo = min(0, g.q_offset)
            for j in range(lo, N + 1):
                want = 1 if j == 0 else 0
                assert g.coefficient(0, j) == want, (flavor, k, a, d, s, j)


def test_constructed_gf_vanishes_at_a_zero_when_2s_divisible():
    for flavor in (REGULAR, OVER):
        for k, d, s in ((3, 2, 0), (3, 2, 1), (4, 4, 2), (4, 1, 0)):
            if (2 * s) % d != 0:
                continue
            g = constructed_gf(k, 0, d, s, flavor, X, N)
            assert g.is_zero(), (flavor, k, d, s)


def test_constructed_gf_nonzero_at_a_zero_otherwise():
    g = constructed_gf(3, 0, 3, 1, REGULAR, X, N, require_ordinary=False)
    assert not g.is_zero()


def test_constructed_gf_ordinary_assertion_fails_off_identification():
    # regular k=4, a=4, d=4, s=3 keeps an x q^(-1) coefficient
    with pytest.raises(OrdinarinessError):
        constructed_gf(4, 4, 4, 3, REGULAR, X, N)
    g = constructed_gf(4, 4, 4, 3, REGULAR, X, N, require_ordinary=False)
    assert g.coefficient(1, -1) == -1


def test_constructed_matches_counters_at_k5_example():
    # 2(a+s) = 8 and 2(k+1) = 12 are both divisible by d = 4, so the
    # construction reproduces the counter table coefficientwise
    k, a, d, s = 5, 3, 4, 1
    g = constructed_gf(k, a, d, s, REGULAR, 8, 22)
    cp = CountParams(k, a, d, s, REGULAR)
    for m in range(9):
        for n in range(23):
            assert g.coefficient(m, n) == count_mult(cp, m, n), (m, n)
    # frozen from the enumeration oracle (DP and brute force agree): there is
    # NO solution with 8 parts and weight 21 here - the would-be witness
    # 5+5+3+3+2+1+1+1 has three 1s and the first-part bound excludes it
    assert g.coefficient(8, 21) == 0
    assert g.coefficient(8, 22) == 1  # the lone witness is 5+4+3+3+3+2+1+1


def test_three_routes_agree_on_identified_tuples():
    cases = [
        (2, 2, 1, 0, REGULAR),
        (3, 2, 2, 1, REGULAR),
        (4, 3, 2, 0, REGULAR),
        (2, 1, 2, 1, OVER),
        (3, 3, 1, 0, OVER),
        (3, 2, 2, 1, OVER),
    ]
    for k, a, d, s, flavor in cases:
        g = constructed_gf(k, a, d, s, flavor, X, N)
        f_enum = enumerated_gf(k, a, d, s, flavor, X, N)
        f_rec = recurrence_gf(k, a, d, s, flavor, X, N)
        assert g == f_enum, (k, a, d, s, flavor)
        assert f_enum == f_rec, (k, a, d, s, flavor)


def test_identification_fails_exactly_on_escape_tuples_over():
    # d = 2, s = 1: the functional-equation chain stays in range iff
    # a + s <= k; at a = k the constructed series picks up an extra
    # x-degree-1 contribution at weight 0
    for k in (2, 3):
        g = constructed_gf(k, k, 2, 1, OVER, X, N, require_ordinary=False)
        f = enumerated_gf(k, k, 2, 1, OVER, X, N)
        assert g.first_difference(f) is not None
        assert not identification_grounded(k, k, 2, 1, OVER)
        if k > 2:
            g2 = constructed_gf(k, k - 1, 2, 1, OVER, X, N)
            f2 = enumerated_gf(k, k - 1, 2, 1, OVER, X, N)
            assert g2 == f2


def test_recurrence_gf_boundaries():
    assert recurrence_gf(3, 0, 2, 1, REGULAR, X, N).is_zero()
    f = recurrence_gf(3, 2, 2, 0, REGULAR, X, N)
    assert f.coefficient(0, 0) == 1
    assert all(f.coefficient(0, n) == 0 for n in range(1, N + 1))


def test_recurrence_gf_matches_enumeration_at_spec_tuple():
    f_rec = recurrence_gf(3, 2, 2, 0, REGULAR, 8, 25)
    f_enum = enumerated_gf(3, 2, 2, 0, REGULAR, 8, 25)
    assert f_rec == f_enum


# ---------------------------------------------------------------------------
# summand recurrence displays
# ---------------------------------------------------------------------------


def test_summand_recurrences_regular_d2_k3():
    sweep = verify_summand_recurrences(3, 2, REGULAR, 4, 6)
    assert sweep.ok, sweep.failures[:2]


def test_summand_recurrences_over_d3_k4_reports_variant():
    sweep = verify_summand_recurrences(4, 3, OVER, 2, 6)
    assert sweep.ok, sweep.failures[:2]
    # the printed final display fails; the corrected variant holds
    assert sweep.suspect_corrected_ok
    assert not sweep.suspect_printed_ok


def test_summand_recurrences_explicit_truncation():
    # pinned window: the high-index instances degenerate below the quadratic
    # weight and the check still passes exactly
    sweep = verify_summand_recurrences(3, 2, REGULAR, 4, 10, trunc_order=40)
    assert sweep.ok
    assert sweep.trunc_order == 40


def test_summand_recurrences_d1_single_group():
    # d = 1 leaves only the wrap-around group (s = 0 = d-1)
    sweep = verify_summand_recurrences(2, 1, REGULAR, 3, 6)
    assert sweep.ok
    assert all(f.display.endswith("wrap") for f in sweep.failures)
    # 2 displays x a in {1,2} x n in {0..3}
    assert sweep.instances == 2 * 2 * 4


def test_gf_functional_equation_all_small_tuples():
    # holds on every valid tuple, including those where the lower index on
    # the right side drops below zero (assembled with folded monomials)
    for flavor in (REGULAR, OVER):
        for k in (2, 3, 4):
            for d in range(1, k + 1):
                for s in range(d):
                    for a in range(1, k + 1):
                        diff = verify_gf_functional_equation(k, a, d, s, flavor, 5, 16)
                        assert diff is None, (flavor, k, a, d, s, diff)


# ---------------------------------------------------------------------------
# x = 1 evaluation against products
# ---------------------------------------------------------------------------


def test_x_one_s_zero_is_single_product():
    # s = 0 collapses the prefactors to 0 and 1: a single triple product
    k, a, d = 3, 2, 2
    forms = dict(x_one_product_forms(k, a, d, 0, REGULAR, N))
    expected = BiSeries.from_power_series(
        triple_product(a, 2 * k + 2 - d, N) * q_poch_inf(1, 1, 1, N).invert_unit(), 0
    )
    assert forms["shifted-argument form"] == expected
    g = constructed_gf(k, a, d, 0, REGULAR, 8, 30)
    ev = eval_x_one(g)
    assert ev.exact_order == 22
    want = triple_product(a, 2 * k + 2 - d, 30) * q_poch_inf(1, 1, 1, 30).invert_unit()
    assert ev.series.truncated(22) == want.truncated(22)


def test_x_one_d1_reproduces_odd_modulus_products():
    # at d = 1 the x = 1 specialization is the classical product side:
    # (q^a, q^(2k+1-a), q^(2k+1); q^(2k+1))_inf / (q; q)_inf
    for k in (2, 3):
        for a in range(1, k + 1):
            g = constructed_gf(k, a, 1, 0, REGULAR, 8, 30)
            ev = eval_x_one(g)
            want = triple_product(a, 2 * k + 1, 30) * q_poch_inf(1, 1, 1, 30).invert_unit()
            assert ev.series.truncated(22) == want.truncated(22), (k, a)


def test_x_one_agreement_spec_example():
    chk = x_one_check(3, 2, 2, 1, REGULAR, 8, 30)
    assert chk.identified and chk.ok
    labels = [r[0] for r in chk.results]
    assert "shifted-argument form" in labels and "bilateral-theta form" in labels


def test_x_one_over_d1_is_lined_product():
    # d = 1 over: (-q; q)_inf (q^a, q^(2k-a), q^(2k); q^(2k))_inf / (q; q)_inf
    k, a = 3, 2
    forms = dict(x_one_product_forms(k, a, 1, 0, OVER, N))
    expected = (
        q_poch_inf(-1, 1, 1, N)
        * triple_product(a, 2 * k, N)
        * q_poch_inf(1, 1, 1, N).invert_unit()
    )
    assert forms["shifted-argument form"] == BiSeries.from_power_series(expected, 0)
    chk = x_one_check(k, a, 1, 0, OVER, 8, 30)
    assert chk.ok


def test_x_one_check_laurent_tuples():
    for k, a, d, s, flavor in ((4, 4, 4, 3, REGULAR), (3, 3, 3, 2, OVER)):
        chk = x_one_check(k, a, d, s, flavor, 8, 30)
        assert not chk.identified
        assert not chk.ordinary
        assert chk.ok, chk.results


@pytest.mark.parametrize(
    "k, a, d, s, flavor",
    [(4, 4, 4, 3, REGULAR), (3, 3, 3, 2, OVER), (3, 2, 2, 1, REGULAR), (4, 1, 3, 2, OVER)],
)
def test_packed_specialization_matches_bivariate(k, a, d, s, flavor):
    for x_order, trunc_order in ((8, 30), (10, 40), (3, 0)):
        got, ordinary = gseries._x_one_row(k, a, d, s, flavor, x_order, trunc_order)
        g = constructed_gf(k, a, d, s, flavor, x_order, trunc_order, require_ordinary=False)
        assert got == sum_x_rows(g)
        assert got.q_offset == g.q_offset
        assert ordinary == g.is_ordinary()


def test_x_one_ordinary_flag_reads_every_row(monkeypatch):
    # q^-1 - x q^-1 vanishes at x = 1 but is not ordinary
    f = gseries._Packed([1, 0, 0], 2, 10, -1, 64, 1)
    terms = [(f, 1, 0, 0, False), (f, -1, 1, 0, False)]
    monkeypatch.setattr(gseries, "_constructed_terms", lambda *args: terms)
    row, ordinary = gseries._x_one_row(2, 1, 1, 0, REGULAR, 2, 10)
    assert row.is_zero() and row.q_offset == -1
    assert not ordinary


def test_x_one_check_builds_no_bivariate_series(monkeypatch):
    def no_gf(*args, **kwargs):
        raise AssertionError("x_one_check read back a bivariate series")

    monkeypatch.setattr(gseries, "constructed_gf", no_gf)
    monkeypatch.setattr(gseries._Packed, "series", no_gf)
    for k, a, d, s, flavor in ((4, 4, 4, 3, REGULAR), (3, 2, 2, 1, REGULAR), (3, 3, 1, 0, OVER)):
        assert x_one_check(k, a, d, s, flavor, 8, 30).ok


def reference_x_one_product_forms(k, a, d, s, flavor, trunc_order):
    """The product forms built by multiplying out series inverses of
    1 - q^d and (q; q)_inf: the oracle for the in-place divisions."""
    N = trunc_order
    M = 2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d
    inv_d = (PowerSeries.one(N) - PowerSeries.monomial(1, d, N)).invert_unit()
    inv_euler = q_poch_inf(1, 1, 1, N).invert_unit()
    lined = q_poch_inf(-1, 1, 1, N) if flavor == OVER else PowerSeries.one(N)
    outer = inv_euler * lined

    def tp(c):
        if c == 0:
            return PowerSeries.zero(N)
        if 1 <= c <= M:
            return triple_product(c, M, N)
        return None

    def mono(e):
        return PowerSeries.monomial(1, e, N)

    pre2 = (PowerSeries.one(N) - mono(d - s)) * inv_d
    forms = []
    second = tp(a + s)
    if a + s - d >= 0 and second is not None:
        pre1 = (mono(d - s) - mono(d)) * inv_d
        form = (pre1 * tp(a + s - d) + pre2 * second) * outer
        forms.append(("shifted-argument form", BiSeries.from_power_series(form, 0)))
    if d - a - s >= 0 and second is not None:
        pre1b = (mono(a + s) - mono(a)) * inv_d
        form = (pre1b * tp(d - a - s) + pre2 * second) * outer
        forms.append(("reflected-argument form", BiSeries.from_power_series(form, 0)))
    th1 = theta_laurent(a + s - d, M, N)
    th2 = theta_laurent(a + s, M, N)
    big = N + max(0, -th1.q_offset, -th2.q_offset)
    th1 = theta_laurent(a + s - d, M, big)
    th2 = theta_laurent(a + s, M, big)

    def mono_bi(e):
        return BiSeries.monomial(1, 0, e, 0, big)

    combo = (mono_bi(d - s) - mono_bi(d)) * th1 + (BiSeries.one(0, big) - mono_bi(d - s)) * th2
    combo = combo * (BiSeries.one(0, big) - mono_bi(d)).invert_unit()
    combo = combo * poch_inf(1, 0, 1, 1, 0, big).invert_unit()
    if flavor == OVER:
        combo = combo * poch_inf(-1, 0, 1, 1, 0, big)
    forms.append(("bilateral-theta form", combo.truncated(N)))
    return forms


@st.composite
def form_instances(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, k))
    return (
        k,
        draw(st.integers(0, k)),
        d,
        draw(st.integers(0, d - 1)),
        draw(st.sampled_from((REGULAR, OVER))),
        draw(st.integers(0, 30)),
    )


@settings(max_examples=120, deadline=None)
@given(form_instances())
def test_x_one_forms_match_inversion_reference(instance):
    got = x_one_product_forms(*instance)
    want = reference_x_one_product_forms(*instance)
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, g), (_, w) in zip(got, want):
        assert g == w, label


def test_x_one_forms_are_exact_past_64_bits(monkeypatch):
    # at N = 360 the (4, 4, 1, 0) over forms have 66-bit coefficients
    instance = (4, 4, 1, 0, OVER, 360)
    want = reference_x_one_product_forms(*instance)
    derive = _packing.slot_width
    widths = []

    def spy(bound):
        widths.append(derive(bound))
        return widths[-1]

    monkeypatch.setattr(_packing, "slot_width", spy)
    assert x_one_product_forms(*instance) == want
    assert widths and min(widths) > 64
    # one word short of the derived width, the forms read back wrong
    monkeypatch.setattr(_packing, "slot_width", lambda bound: derive(bound) - 64)
    short = x_one_product_forms(*instance)
    assert [label for label, _ in short] == [label for label, _ in want]
    assert all(g != w for (_, g), (_, w) in zip(short, want))


def test_x_one_forms_make_no_inversion(monkeypatch):
    def no_inverse(self):
        raise AssertionError("x_one_product_forms inverted a series")

    monkeypatch.setattr(BiSeries, "invert_unit", no_inverse)
    monkeypatch.setattr(PowerSeries, "invert_unit", no_inverse)
    for k, a, d, s, flavor in ((3, 2, 2, 1, REGULAR), (4, 4, 4, 3, REGULAR), (3, 3, 3, 2, OVER)):
        assert len(x_one_product_forms(k, a, d, s, flavor, 30)) >= 1


def test_x_one_exact_bound_identified_vs_not():
    assert x_one_exact_bound(2, 2, 1, 0, REGULAR, 10, 40) == 30  # min weight 121 > 30
    assert x_one_exact_bound(4, 4, 4, 3, REGULAR, 10, 40) < 10


def test_bridging_identity_grid():
    for d in range(1, 6):
        for s in range(d):
            for a in range(1, 6):
                assert bridging_identity_holds(d, s, a), (d, s, a)


def unilateral_theta_pieces(c: int, modulus: int, trunc: int):
    """The two one-sided alternating sums whose reindexings merge into the
    bilateral theta sum: sum_{n>=0} (-1)^n q^(M n(n+1)/2 - n c) and
    sum_{n>=0} (-1)^n q^(M n(n+1)/2 + (n+1) c).  The merge asserts
    bilateral = first - second."""
    first = [0] * (trunc + 1)
    second = [0] * (trunc + 1)
    n = 0
    while True:
        e = modulus * n * (n + 1) // 2 - n * c
        e2 = modulus * n * (n + 1) // 2 + (n + 1) * c
        if e > trunc and e2 > trunc and modulus * (n + 1) > c:
            break
        if 0 <= e <= trunc:
            first[e] += 1 if n % 2 == 0 else -1
        elif e < 0:
            raise DomainError("unilateral sum left the power-series range")
        if 0 <= e2 <= trunc:
            second[e2] += 1 if n % 2 == 0 else -1
        n += 1
    return PowerSeries(first, trunc), PowerSeries(second, trunc)


def test_unilateral_pieces_merge_into_bilateral():
    for modulus in (3, 5, 7, 9):
        for c in range(1, modulus + 1):
            u1, u2 = unilateral_theta_pieces(c, modulus, 40)
            assert u1 - u2 == theta_bilateral(c, modulus, 40), (c, modulus)


def test_eval_x_one_of_counter_table_gives_totals():
    # summing the x-rows of the two-variable counter table reproduces the
    # one-variable counter; at k = 2 the least weight of 9 parts is 81, far
    # beyond the window, so every coefficient is complete
    from qgordon.counting import count_mult_total

    cp = CountParams(2, 2, 1, 0, REGULAR)
    f = enumerated_gf(2, 2, 1, 0, REGULAR, 8, 25)
    ev = eval_x_one(f)
    assert ev.exact_order == 17
    for n in range(26):
        assert ev.series.coefficient(n) == count_mult_total(cp, n)


def test_needed_trunc_order_grows():
    assert needed_trunc_order(4, 1, 3) >= 54
    assert needed_trunc_order(2, 1, 0) > 0


def test_identification_condition_strings():
    ok, _ = identification_conditions(3, 2, 2, 1, REGULAR)
    assert ok
    ok, why = identification_conditions(3, 3, 3, 0, REGULAR)
    assert not ok and "2(k+1)" in why
    ok, why = identification_conditions(3, 2, 3, 0, REGULAR)
    assert not ok and "2(a+s)" in why
    ok, why = identification_conditions(3, 2, 3, 0, OVER)
    assert not ok and "d in {1, 2}" in why


def test_regular_escape_family_is_identified_and_not_grounded():
    # "identified and not grounded" <=> d | 2(k+1) and 2(a+s) = 2k+2+d,
    # exhaustively for k <= 12 (see the identification_grounded docstring)
    family = []
    for k in range(2, 13):
        for d in range(1, k + 1):
            for s in range(d):
                for a in range(0, k + 1):
                    identified, _ = identification_conditions(k, a, d, s, REGULAR)
                    escapes = identified and not identification_grounded(k, a, d, s, REGULAR)
                    stated = (2 * (k + 1)) % d == 0 and 2 * (a + s) == 2 * k + 2 + d
                    assert escapes == stated, (k, a, d, s)
                    if escapes and k <= 8:
                        family.append((k, a, d, s))
    assert sorted(family) == [(5, 5, 4, 3), (7, 7, 4, 3), (8, 7, 6, 5), (8, 8, 6, 4)]
