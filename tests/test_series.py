"""Oracle and property tests for the exact series kernels."""

import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qgordon.series import (
    BiSeries,
    DomainError,
    OrdinarinessError,
    PowerSeries,
    TruncationMismatch,
    div_binomial,
    eval_x_one,
    mul_binomial,
    poch_finite,
    poch_inf,
    q_poch_finite,
    q_poch_inf,
    theta_bilateral,
    theta_laurent,
    triple_product,
    write_coefficients_csv,
)


def series_from_dict(d, n):
    coeffs = [0] * (n + 1)
    for e, c in d.items():
        coeffs[e] = c
    return PowerSeries(coeffs, n)


def enumerate_partition_count(n):
    """Independent oracle: count partitions of n by bounded recursion."""

    def rec(remaining, largest):
        if remaining == 0:
            return 1
        return sum(rec(remaining - v, v) for v in range(1, min(remaining, largest) + 1))

    return rec(n, n)


def random_biseries(rng, x_order, trunc_order, density=0.3, magnitude=9, q_offset=0):
    rows = []
    for _ in range(x_order + 1):
        rows.append(
            [
                rng.randint(-magnitude, magnitude) if rng.random() < density else 0
                for _ in range(trunc_order - q_offset + 1)
            ]
        )
    return BiSeries(rows, x_order, trunc_order, q_offset)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------


def test_product_of_first_three_factors():
    # (1-q)(1-q^2)(1-q^3) = 1 - q - q^2 + q^4 + q^5 - q^6
    got = q_poch_finite(1, 1, 1, 3, 8)
    want = series_from_dict({0: 1, 1: -1, 2: -1, 4: 1, 5: 1, 6: -1}, 8)
    assert got == want


def test_multiplying_by_one_is_identity():
    rng = random.Random(11)
    for _ in range(10):
        f = random_biseries(rng, 4, 15)
        assert f * BiSeries.one(4, 15) == f


def test_ring_axioms_on_randomized_operands():
    rng = random.Random(303)
    for _ in range(8):
        a = random_biseries(rng, 3, 30)
        b = random_biseries(rng, 3, 30)
        c = random_biseries(rng, 3, 30)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)


def test_ring_axioms_with_mixed_offsets():
    rng = random.Random(99)
    a = random_biseries(rng, 2, 12, q_offset=-3)
    b = random_biseries(rng, 2, 12, q_offset=-1)
    c = random_biseries(rng, 2, 12, q_offset=0)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b).q_offset == -3
    assert (a * b).q_offset == -4


def coefficient_dict(f):
    """{(x_exp, q_exp): coeff} of the nonzero coefficients of f."""
    return {
        (m, f.q_offset + i): c for m, row in enumerate(f.rows) for i, c in enumerate(row) if c
    }


def dict_sum(f, g):
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def dict_product(f, g, x_order, trunc_order):
    """The plain convolution of two coefficient dicts, cut to x^x_order and
    q^trunc_order: the oracle of BiSeries.__mul__."""
    out = {}
    for (m1, e1), c1 in f.items():
        for (m2, e2), c2 in g.items():
            if m1 + m2 <= x_order and e1 + e2 <= trunc_order:
                out[m1 + m2, e1 + e2] = out.get((m1 + m2, e1 + e2), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


@st.composite
def ring_triples(draw):
    """Three series on one window, each at its own q-offset, negative ones
    included."""
    x_order = draw(st.integers(0, 3))
    trunc = draw(st.integers(0, 10))

    def series():
        off = draw(st.integers(-4, trunc))
        coeffs = st.lists(st.integers(-4, 4), min_size=trunc - off + 1, max_size=trunc - off + 1)
        return BiSeries([draw(coeffs) for _ in range(x_order + 1)], x_order, trunc, off)

    return series(), series(), series()


@settings(max_examples=200, deadline=None)
@given(ring_triples())
def test_ring_axioms_at_mixed_negative_offsets(triple):
    a, b, c = triple
    X, N = a.x_order, a.trunc_order
    da, db, dc = map(coefficient_dict, triple)
    # + and * are the oracle's sum and cut convolution, in either order
    assert coefficient_dict(a + b) == dict_sum(da, db) == coefficient_dict(b + a)
    assert coefficient_dict(a * b) == dict_product(da, db, X, N) == coefficient_dict(b * a)
    assert (a + b) + c == a + (b + c)
    # cutting at q^N is linear, so * distributes over + exactly
    assert a * (b + c) == a * b + a * c
    assert coefficient_dict(a * (b + c)) == dict_product(da, dict_sum(db, dc), X, N)
    # a product cut at q^N drops terms that a factor with a negative offset
    # would bring back below q^N, so (ab)c and a(bc) agree with the oracle
    # through q^(N + min(0, offset of a, offset of c)), and everywhere when
    # no offset is negative
    top = N + min(0, a.q_offset, c.q_offset)
    whole = dict_product(dict_product(da, db, X, 2 * N), dc, X, top)
    for grouped in ((a * b) * c, a * (b * c)):
        assert {key: v for key, v in coefficient_dict(grouped).items() if key[1] <= top} == whole
    if min(f.q_offset for f in triple) >= 0:
        assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(ring_triples(), st.sampled_from((1, -1)))
def test_invert_unit_round_trips(triple, unit):
    f, b, _ = triple
    X, N = f.x_order, f.trunc_order
    # f's coefficients at q^0..q^N, with constant term +-1: a unit
    rows = [[f.coefficient(m, j) for j in range(N + 1)] for m in range(X + 1)]
    rows[0][0] = unit
    u = BiSeries(rows, X, N)
    inverse = u.invert_unit()
    assert dict_product(coefficient_dict(u), coefficient_dict(inverse), X, N) == {(0, 0): 1}
    assert inverse.invert_unit() == u
    # the inverse is exact through q^N, so b u u^-1 gives b back through
    # q^(N + min(0, offset of b))
    top = N + min(0, b.q_offset)
    back = coefficient_dict((b * u) * inverse)
    assert {key: c for key, c in back.items() if key[1] <= top} == {
        key: c for key, c in coefficient_dict(b).items() if key[1] <= top
    }
    if b.q_offset >= 0:
        assert (b * u) * inverse == b


def test_mismatched_truncation_raises():
    a = BiSeries.one(3, 10)
    b = BiSeries.one(3, 11)
    with pytest.raises(TruncationMismatch):
        _ = a + b
    with pytest.raises(TruncationMismatch):
        _ = a * b
    with pytest.raises(TruncationMismatch):
        _ = PowerSeries.one(5) + PowerSeries.one(6)


def reference_first_difference(f, g):
    """Coefficient scan in (q_exp, x_exp) order: the oracle for the row-level
    first_difference."""
    for j in range(min(f.q_offset, g.q_offset), f.trunc_order + 1):
        for m in range(f.x_order + 1):
            a, b = f.coefficient(m, j), g.coefficient(m, j)
            if a != b:
                return (m, j, a, b)
    return None


@st.composite
def biseries_pairs(draw):
    """Two series on one window: unrelated, equal under ==, or differing in
    several rows at one q-power; offsets mixed."""
    x_order = draw(st.integers(0, 3))
    trunc = draw(st.integers(0, 12))
    coeff = st.sampled_from((0, 0, 0, 1, -1, 2))

    def series(off):
        rows = [[draw(coeff) for _ in range(trunc - off + 1)] for _ in range(x_order + 1)]
        return BiSeries(rows, x_order, trunc, off)

    f = series(draw(st.integers(-4, trunc)))
    kind = draw(st.sampled_from(("unrelated", "equal", "same-q-power")))
    if kind == "unrelated":
        return f, series(draw(st.integers(-4, trunc)))
    pad = draw(st.integers(0, 3))
    rows = [[0] * pad + list(row) for row in f.rows]
    if kind == "same-q-power":
        j = draw(st.integers(0, len(rows[0]) - 1))
        for m in draw(st.sets(st.integers(0, x_order), min_size=1)):
            rows[m][j] += draw(st.sampled_from((1, -1)))
    return f, BiSeries(rows, x_order, trunc, f.q_offset - pad)


@settings(max_examples=200, deadline=None)
@given(biseries_pairs())
def test_first_difference_matches_coefficient_scan(pair):
    f, g = pair
    assert f.first_difference(g) == reference_first_difference(f, g)
    assert g.first_difference(f) == reference_first_difference(g, f)
    assert (f == g) == (reference_first_difference(f, g) is None)
    if f == g:
        assert hash(f) == hash(g)


@settings(max_examples=100, deadline=None)
@given(biseries_pairs())
def test_add_matches_coefficientwise_sum(pair):
    f, g = pair
    total = f + g
    lo = min(f.q_offset, g.q_offset)
    assert total.q_offset == lo
    for m in range(f.x_order + 1):
        for j in range(lo, f.trunc_order + 1):
            assert total.coefficient(m, j) == f.coefficient(m, j) + g.coefficient(m, j)


# ---------------------------------------------------------------------------
# PowerSeries: the x_order = 0, q_offset = 0 BiSeries
# ---------------------------------------------------------------------------


@st.composite
def power_series_pairs(draw):
    n = draw(st.integers(0, 12))
    row = st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)
    return PowerSeries(draw(row), n), PowerSeries(draw(row), n)


@settings(max_examples=150, deadline=None)
@given(power_series_pairs(), st.integers(-3, 3), st.integers(0, 14), st.sampled_from((1, -1)))
def test_power_series_ops_match_the_biseries_ops(pair, c, e, unit):
    f, g = pair
    n = f.trunc_order
    bf, bg = (BiSeries([h.coeffs], 0, n) for h in pair)
    u = PowerSeries((unit,) + f.coeffs[1:], n)
    cases = [
        (f + g, bf + bg),
        (f - g, bf - bg),
        (-f, -bf),
        (c * f, c * bf),
        (f * c, bf * c),
        (f * g, bf * bg),
        (f.times_monomial(c, e), bf.times_monomial(c, 0, e)),
        (f.truncated(n // 2), bf.truncated(n // 2)),
        (u.invert_unit(), BiSeries([u.coeffs], 0, n).invert_unit()),
    ]
    for got, want in cases:
        assert type(got) is PowerSeries
        assert got.trunc_order == want.trunc_order
        assert list(got.coeffs) == [want.coefficient(0, j) for j in range(want.trunc_order + 1)]
    for h, bh in ((g, bg), (f, bf), (f.times_monomial(1, 1), bf.times_monomial(1, 0, 1))):
        diff = bf.first_difference(bh)
        assert f.first_difference(h) == (None if diff is None else diff[1:])


def test_power_series_keeps_its_univariate_contract():
    f = PowerSeries([3, 0, -2, 0, 7], 5)
    same_window = BiSeries([f.coeffs], 0, 5)
    assert isinstance(f, BiSeries)
    assert f != PowerSeries(f.coeffs, 6)
    assert f != same_window and same_window != f
    assert len({f, PowerSeries([3, 0, -2, 0, 7, 0], 5)}) == 1
    with pytest.raises(DomainError):
        PowerSeries.monomial(1, -1, 5)
    with pytest.raises(DomainError):
        f.times_monomial(1, -1)
    with pytest.raises(AttributeError):
        f.trunc_order = 9
    assert not hasattr(f, "__dict__")
    written = []
    for series in (f, same_window):
        buf = io.StringIO()
        write_coefficients_csv(buf, series)
        written.append(buf.getvalue())
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# invert_unit
# ---------------------------------------------------------------------------


def test_invert_one_minus_q_is_geometric():
    n = 12
    f = PowerSeries.one(n) - PowerSeries.monomial(1, 1, n)
    assert f.invert_unit() == PowerSeries([1] * (n + 1), n)


def test_partition_numbers_from_inverted_euler_product():
    # coefficients of 1/(q;q)_inf are p(n); oracle is direct enumeration
    n = 12
    inv = q_poch_inf(1, 1, 1, n).invert_unit()
    for m in (0, 1, 2, 3, 4, 5, 10, 12):
        assert inv.coefficient(m) == enumerate_partition_count(m)
    assert inv.coefficient(5) == 7
    assert inv.coefficient(10) == 42


def test_invert_unit_is_two_sided_inverse():
    rng = random.Random(17)
    for const in (1, -1):
        rows = [[rng.randint(-5, 5) for _ in range(21)] for _ in range(4)]
        rows[0][0] = const
        f = BiSeries(rows, 3, 20)
        g = f.invert_unit()
        assert f * g == BiSeries.one(3, 20)
        assert g * f == BiSeries.one(3, 20)


def test_invert_unit_rejects_non_units():
    rows = [[2, 0, 0]]
    with pytest.raises(DomainError):
        BiSeries(rows, 0, 2).invert_unit()
    with pytest.raises(DomainError):
        PowerSeries([0, 1], 1).invert_unit()


def test_invert_unit_requires_zero_offset():
    shifted = BiSeries.one(2, 8).times_monomial(1, 0, -1)
    with pytest.raises(DomainError):
        shifted.invert_unit()


# ---------------------------------------------------------------------------
# Pochhammer products
# ---------------------------------------------------------------------------


def test_poch_finite_empty_product_is_one():
    assert poch_finite(1, 1, 1, 1, 0, 4, 10) == BiSeries.one(4, 10)


@settings(max_examples=200, deadline=None)
@given(
    coeff=st.integers(-3, 3),
    x_exp=st.integers(0, 3),
    q_exp=st.integers(0, 5),
    step=st.integers(1, 3),
    n=st.integers(0, 6),
    x_order=st.integers(0, 4),
    trunc_order=st.integers(0, 20),
)
def test_poch_finite_matches_left_fold(coeff, x_exp, q_exp, step, n, x_order, trunc_order):
    # oracle: fold the factors 1 - z q^(step*j) left to right as BiSeries products
    one = BiSeries.one(x_order, trunc_order)
    want = one
    for j in range(n):
        z = BiSeries.monomial(coeff, x_exp, q_exp + step * j, x_order, trunc_order)
        want = want * (one - z)
    assert poch_finite(coeff, x_exp, q_exp, step, n, x_order, trunc_order) == want


def test_poch_finite_rejects_negative_exponents():
    with pytest.raises(DomainError):
        poch_finite(1, 0, -1, 1, 2, 3, 9)
    with pytest.raises(DomainError):
        poch_finite(1, -1, 1, 1, 2, 3, 9)


def test_poch_finite_euler_identity_against_direct_multiplication():
    # (-q; q)_N * (q; q^2)_inf = 1: both sides built by direct multiplication
    n = 30
    lhs = q_poch_finite(-1, 1, 1, n, n)
    direct = PowerSeries.one(n)
    for j in range(n):
        direct = direct * (PowerSeries.one(n) + PowerSeries.monomial(1, 1 + j, n))
    assert lhs == direct
    assert lhs * q_poch_inf(1, 1, 2, n) == PowerSeries.one(n)


def test_euler_identity_at_large_truncation():
    n = 50
    assert q_poch_inf(-1, 1, 1, n) * q_poch_inf(1, 1, 2, n) == PowerSeries.one(n)


def test_poch_inf_pentagonal_prefix():
    # oracle: multiply the factors (1 - q^j), j <= 10, directly
    n = 10
    direct = PowerSeries.one(n)
    for j in range(1, n + 1):
        direct = direct * (PowerSeries.one(n) - PowerSeries.monomial(1, j, n))
    got = q_poch_inf(1, 1, 1, n)
    assert got == direct
    assert got == series_from_dict({0: 1, 1: -1, 2: -1, 5: 1, 7: 1}, n)


def test_poch_inf_x_row_zero_is_one():
    f = poch_inf(1, 1, 1, 1, 5, 12)
    assert list(f.rows[0]) == [1] + [0] * 12


def test_poch_inf_beyond_truncation_is_one():
    n = 9
    assert poch_inf(1, 0, n + 1, 1, 3, n) == BiSeries.one(3, n)


def test_poch_inf_rejects_constant():
    with pytest.raises(DomainError):
        poch_inf(1, 0, 0, 1, 3, 9)


# ---------------------------------------------------------------------------
# in-place row sweeps by 1 + c x^a q^e and 1 - x^a q^e
# ---------------------------------------------------------------------------


@st.composite
def binomial_instances(draw):
    x_order = draw(st.integers(0, 5))
    trunc_order = draw(st.integers(0, 30))
    row = st.lists(st.integers(-50, 50), min_size=trunc_order + 1, max_size=trunc_order + 1)
    rows = draw(st.lists(row, min_size=x_order + 1, max_size=x_order + 1))
    a = draw(st.integers(0, 3))
    e = draw(st.integers(0, trunc_order))
    c = draw(st.integers(-2, 2))
    return rows, x_order, trunc_order, a, e, c


@settings(max_examples=200, deadline=None)
@given(binomial_instances())
@example(([[1, 2, 3]], 0, 2, 0, 0, 2))  # a = e = 0: the factor is the constant 1 + c
@example(([[1, 0], [0, 1]], 1, 1, 3, 1, 1))  # a > x_order: the factor is 1 on the window
def test_binomial_sweeps_match_the_kernel(instance):
    rows, X, N, a, e, c = instance
    original = BiSeries(rows, X, N)

    def binomial(coeff):
        return BiSeries.one(X, N) + BiSeries.monomial(coeff, a, e, X, N)

    got = [list(r) for r in rows]
    mul_binomial(got, a, e, c)
    assert BiSeries(got, X, N) == original * binomial(c)
    if (a, e) == (0, 0):
        return
    quotient = [list(r) for r in rows]
    div_binomial(quotient, a, e)
    assert BiSeries(quotient, X, N) * binomial(-1) == original
    mul_binomial(quotient, a, e, -1)
    assert quotient == rows


# ---------------------------------------------------------------------------
# triple products and theta sums
# ---------------------------------------------------------------------------


def test_triple_product_symmetry():
    for modulus in (3, 5, 8):
        for c in range(1, modulus):
            assert triple_product(c, modulus, 25) == triple_product(modulus - c, modulus, 25)


def test_triple_product_against_bilateral_theta_sum():
    # |n| <= 4 suffices at this truncation; theta_bilateral stops on its own
    got = triple_product(2, 5, 12)
    want = theta_bilateral(2, 5, 12)
    assert got == want


def test_jacobi_triple_product_identity_grid():
    n = 50
    for modulus in range(1, 9):
        for c in range(1, modulus + 1):
            assert triple_product(c, modulus, n) == theta_bilateral(c, modulus, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(st.integers(1, m), st.just(m))), st.integers(0, 60))
@example((7, 7), 60)
@example((1, 1), 0)
def test_triple_product_matches_bilateral_theta(c_and_modulus, trunc_order):
    c, modulus = c_and_modulus
    assert triple_product(c, modulus, trunc_order) == theta_bilateral(c, modulus, trunc_order)


def test_theta_rejects_modulus_below_one():
    # at modulus 0 the exponents M n(n-1)/2 + c n need not grow, so the walk
    # would not end; it is refused before it starts
    for c, modulus in ((0, 0), (1, 0), (2, -1)):
        with pytest.raises(DomainError):
            theta_bilateral(c, modulus, 5)
        with pytest.raises(DomainError):
            theta_laurent(c, modulus, 5)


def test_theta_laurent_keeps_negative_exponents():
    # c = -1: n = 1 gives q^-1, which theta_bilateral refuses
    theta = theta_laurent(-1, 5, 10)
    assert theta.q_offset == -1
    assert theta.coefficient(0, -1) == -1
    with pytest.raises(DomainError):
        theta_bilateral(-1, 5, 10)


def test_triple_product_at_c_equals_modulus_is_zero():
    assert triple_product(5, 5, 15).is_zero()


def test_triple_product_rejects_out_of_range():
    with pytest.raises(DomainError):
        triple_product(0, 5, 10)
    with pytest.raises(DomainError):
        triple_product(6, 5, 10)


# ---------------------------------------------------------------------------
# x = 1 specialization
# ---------------------------------------------------------------------------


def test_eval_x_one_simple():
    f = BiSeries.one(2, 6) + BiSeries.monomial(1, 1, 1, 2, 6)
    res = eval_x_one(f)
    assert res.series == series_from_dict({0: 1, 1: 1}, 6)
    assert res.exact_order == 4


def test_eval_x_one_zero():
    res = eval_x_one(BiSeries.zero(3, 9))
    assert res.series.is_zero()


def test_eval_x_one_rejects_negative_exponents():
    f = BiSeries.monomial(1, 0, -2, 2, 8)
    with pytest.raises(OrdinarinessError):
        eval_x_one(f)


# ---------------------------------------------------------------------------
# offsets, substitution, truncation discipline
# ---------------------------------------------------------------------------


def test_times_monomial_negative_shift_shrinks_window():
    f = BiSeries.one(2, 10)
    g = f.times_monomial(1, 0, -3)
    assert g.trunc_order == 7
    assert g.q_offset == -3
    assert g.coefficient(0, -3) == 1
    h = g.times_monomial(1, 0, 3).truncated(7)
    assert h == BiSeries.one(2, 10).truncated(7)


def test_times_monomial_rejects_negative_x():
    with pytest.raises(DomainError):
        BiSeries.one(2, 5).times_monomial(1, -1, 0)


def test_x_to_xq_matches_manual_substitution():
    rng = random.Random(5)
    f = random_biseries(rng, 4, 14)
    g = f.x_to_xq()
    for m in range(5):
        for j in range(15):
            src = f.coefficient(m, j - m) if j - m >= 0 else 0
            assert g.coefficient(m, j) == src


def test_x_to_xq_respects_offsets():
    f = BiSeries.monomial(3, 2, -1, 4, 8)
    g = f.x_to_xq()
    assert g.coefficient(2, 1) == 3


def test_as_ordinary_normalizes_offset():
    f = BiSeries.monomial(2, 1, 3, 3, 8).times_monomial(1, 0, -2)  # x q^1, window to 6
    g = f.as_ordinary()
    assert g.q_offset == 0
    assert g.coefficient(1, 1) == 2


def test_as_ordinary_raises_on_negative_content():
    f = BiSeries.monomial(1, 0, -1, 2, 6)
    with pytest.raises(OrdinarinessError):
        f.as_ordinary()


def test_truncated_cannot_extend():
    with pytest.raises(TruncationMismatch):
        PowerSeries.one(5).truncated(6)
    with pytest.raises(TruncationMismatch):
        BiSeries.one(2, 5).truncated(9)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_csv_export_round_trip():
    f = BiSeries.monomial(-7, 1, 2, 2, 4) + BiSeries.one(2, 4)
    buf = io.StringIO()
    rows_written = write_coefficients_csv(buf, f)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "x_exp,q_exp,coefficient"
    assert rows_written == 2
    assert "1,2,-7" in lines
    assert "0,0,1" in lines
