"""The packed Kronecker multiply must agree with the naive convolution."""

import random

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


def test_empty_operands_give_zero():
    assert _packing.multiply_tables([], [[1, 2]], 2, 3) == [[0, 0, 0], [0, 0, 0]]
    assert _packing.convolve([], [1], 2) == [0, 0]
