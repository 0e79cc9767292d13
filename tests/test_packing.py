"""The packed Kronecker multiply must agree with the naive convolution."""

import random

from hypothesis import given, settings, strategies as st

from qgordon import _packing


def random_table(rng, n_rows, length, magnitude):
    return [
        [rng.randint(-magnitude, magnitude) for _ in range(length)] for _ in range(n_rows)
    ]


def multiply_tables_naive(a_rows, b_rows, keep_rows, keep_len):
    """Reference O(n^2) implementation of multiply_tables."""
    out = [[0] * keep_len for _ in range(keep_rows)]
    for r1, row_a in enumerate(a_rows):
        for r2, row_b in enumerate(b_rows):
            r = r1 + r2
            if r >= keep_rows:
                continue
            target = out[r]
            for i, ca in enumerate(row_a):
                if not ca or i >= keep_len:
                    continue
                for j, cb in enumerate(row_b):
                    t = i + j
                    if t >= keep_len:
                        break
                    if cb:
                        target[t] += ca * cb
    return out


def test_packed_equals_naive_univariate():
    rng = random.Random(20250801)
    for _ in range(25):
        la, lb = rng.randint(1, 40), rng.randint(1, 40)
        a = random_table(rng, 1, la, 10**6)
        b = random_table(rng, 1, lb, 10**6)
        keep = rng.randint(1, la + lb)
        assert _packing.multiply_tables(a, b, 1, keep) == multiply_tables_naive(a, b, 1, keep)


def test_packed_equals_naive_bivariate():
    rng = random.Random(42)
    for _ in range(15):
        ra, rb = rng.randint(1, 6), rng.randint(1, 6)
        la, lb = rng.randint(1, 20), rng.randint(1, 20)
        a = random_table(rng, ra, la, 10**4)
        b = random_table(rng, rb, lb, 10**4)
        keep_rows = rng.randint(1, ra + rb + 2)
        keep = rng.randint(1, la + lb + 3)
        assert _packing.multiply_tables(a, b, keep_rows, keep) == (
            multiply_tables_naive(a, b, keep_rows, keep)
        )


def test_huge_coefficients_do_not_overflow_slots():
    big = 10**60
    a = [[big, -big, big]]
    b = [[-big, big]]
    assert _packing.multiply_tables(a, b, 1, 4) == multiply_tables_naive(a, b, 1, 4)


def test_pack_unpack_roundtrip():
    rng = random.Random(7)
    rows = random_table(rng, 4, 9, 2**50)
    bits = _packing.slot_bits_for(rows, [[1]])
    packed = _packing.pack(rows, 9, bits)
    assert _packing.unpack(packed, 4, 9, bits, 4, 9) == rows


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=12),
    st.sampled_from((8, 16, 64, 128)),
)
def test_pack_is_exact_for_coefficients_wider_than_a_slot(row, bits):
    want = sum(c << (bits * i) for i, c in enumerate(row))
    assert _packing.pack([row], len(row), bits) == want


def test_empty_operands_give_zero():
    assert _packing.multiply_tables([], [[1, 2]], 2, 3) == [[0, 0, 0], [0, 0, 0]]
    assert _packing.convolve([], [1], 2) == [0, 0]


# ---------------------------------------------------------------------------
# boundary properties: coefficients at the edges of the balanced slot range
# ---------------------------------------------------------------------------


@st.composite
def edge_tables(draw, max_rows=4, max_len=12):
    """(rows, slot_bits): rows of one length whose coefficients include
    -2**(B-1) and 2**(B-1) - 1, the extremes a B-bit slot holds."""
    bits = 8 * draw(st.integers(1, 24))
    half = 1 << (bits - 1)
    coeff = st.one_of(
        st.sampled_from((-half, half - 1, 0, -1, 1)), st.integers(-half, half - 1)
    )
    n_rows = draw(st.integers(1, max_rows))
    length = draw(st.integers(1, max_len))
    row = st.lists(coeff, min_size=length, max_size=length)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return rows, bits


@settings(max_examples=50, deadline=None)
@given(edge_tables())
def test_pack_unpack_roundtrip_at_the_slot_edges(table):
    rows, bits = table
    stride = len(rows[0])
    packed = _packing.pack(rows, stride, bits)
    assert _packing.unpack(packed, len(rows), stride, bits, len(rows), stride) == rows
    flat = [c for row in rows for c in row]
    assert _packing.read_slots(packed, len(flat), bits) == flat
    # any multiple of 2**(n*B) added leaves the balanced digits unchanged
    assert _packing.read_slots(packed - (3 << (len(flat) * bits)), len(flat), bits) == flat


@settings(max_examples=50, deadline=None)
@given(edge_tables(), st.integers(0, 3))
def test_unsigned_read_and_respread_at_the_slot_edges(table, extra_words):
    rows, bits = table
    flat = [c for row in rows for c in row]
    unsigned = [c + (1 << (bits - 1)) for c in flat]  # 0 and 2**B - 1 included
    value = sum(c << (i * bits) for i, c in enumerate(unsigned))
    assert _packing.read_slots(value, len(flat), bits, signed=False) == unsigned
    packed = _packing.pack([flat], len(flat), bits)
    wider = bits + 8 * extra_words
    assert _packing.respread(packed, len(flat), bits, wider) == _packing.pack(
        [flat], len(flat), wider
    )


@settings(max_examples=40, deadline=None)
@given(edge_tables(max_rows=3, max_len=10), edge_tables(max_rows=3, max_len=10), st.data())
def test_multiply_tables_matches_naive_at_the_slot_edges(a, b, data):
    a_rows, b_rows = a[0], b[0]
    keep_rows = data.draw(st.integers(1, len(a_rows) + len(b_rows) + 1))
    keep_len = data.draw(st.integers(1, len(a_rows[0]) + len(b_rows[0]) + 1))
    assert _packing.multiply_tables(a_rows, b_rows, keep_rows, keep_len) == (
        multiply_tables_naive(a_rows, b_rows, keep_rows, keep_len)
    )


def test_slot_width_boundaries():
    assert _packing.slot_width(0) == 64
    assert _packing.slot_width(2**63 - 1) == 64
    assert _packing.slot_width(2**63) == 128
    assert _packing.slot_width(2**127 - 1) == 128


def divide_unit_naive(row, e):
    out = list(row)
    for t in range(e, len(out)):
        out[t] += out[t - e]
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 64),
    st.sampled_from((64, 128)),
    st.lists(st.sampled_from((1, -1, 0)), min_size=1, max_size=60),
)
def test_divide_unit_is_exact_at_its_derived_bound(n_slots, e, bits, signs):
    """Coefficients of size c with c * ((n_slots - 1) // e + 1), the bound
    the row kernel derives for a division by 1 - q^e, at the largest value
    that bits holds; all of one sign, the quotient reaches that bound."""
    factor = (n_slots - 1) // e + 1
    c = ((1 << (bits - 1)) - 1) // factor
    assert _packing.slot_width(c * factor) == bits
    row = [c * signs[i % len(signs)] for i in range(n_slots)]
    got = _packing.divide_unit(_packing.pack([row], n_slots, bits), e, n_slots, bits)
    want = divide_unit_naive(row, e)
    assert max(abs(v) for v in want) <= c * factor
    assert _packing.read_slots(got, n_slots, bits) == want
    top = _packing.divide_unit(_packing.pack([[c] * n_slots], n_slots, bits), e, n_slots, bits)
    assert max(_packing.read_slots(top, n_slots, bits)) == c * factor
