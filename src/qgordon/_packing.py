"""Kronecker-substitution kernels for exact polynomial multiplication.

A coefficient table (one or more rows of signed integers) is packed into a
single Python int by evaluating the polynomial at x = 2**slot_bits; one bigint
multiply then performs the whole convolution, and balanced base-2**slot_bits
digit extraction recovers the exact signed coefficients.  CPython's subquadratic
bigint multiplication makes this far faster than a Python-level O(n^2) loop.

Correctness requires every coefficient of the *product* to satisfy
|c| < 2**(slot_bits - 1); slot_bits_for() derives a sufficient width from the
operands, so all public entry points are exact for arbitrary integers.
"""

from __future__ import annotations


def slot_bits_for(a_rows: list[list[int]], b_rows: list[list[int]]) -> int:
    """Slot width (bits, multiple of 8) safe for the product of a and b."""
    max_a = max((abs(c) for row in a_rows for c in row), default=0)
    max_b = max((abs(c) for row in b_rows for c in row), default=0)
    # number of (i, j) pairs contributing to one product coefficient
    overlap = min(
        max((len(r) for r in a_rows), default=1),
        max((len(r) for r in b_rows), default=1),
    ) * min(len(a_rows), len(b_rows))
    bits = max_a.bit_length() + max_b.bit_length() + max(overlap, 1).bit_length() + 2
    bits = max(bits, 16)
    return (bits + 7) & ~7


def _offset_constant(n_slots: int, slot_bits: int) -> int:
    # half * (1 + 2^B + 2^2B + ...): adding this makes every balanced digit
    # land in [0, 2^B), so byte-level packing never borrows across slots
    half = 1 << (slot_bits - 1)
    repunit = ((1 << (slot_bits * n_slots)) - 1) // ((1 << slot_bits) - 1)
    return half * repunit


def pack(rows: list[list[int]], stride: int, slot_bits: int) -> int:
    """Evaluate sum_{r,i} rows[r][i] * 2^(slot_bits*(r*stride+i)) exactly."""
    n_slots = len(rows) * stride
    nbytes = slot_bits // 8
    half = 1 << (slot_bits - 1)
    buf = bytearray(half.to_bytes(nbytes, "little") * n_slots)
    for r, row in enumerate(rows):
        base = r * stride * nbytes
        for i, c in enumerate(row):
            if c:
                buf[base + i * nbytes : base + (i + 1) * nbytes] = (c + half).to_bytes(
                    nbytes, "little"
                )
    return int.from_bytes(buf, "little") - _offset_constant(n_slots, slot_bits)


def unpack(
    value: int, n_rows: int, stride: int, slot_bits: int, keep_rows: int, keep_len: int
) -> list[list[int]]:
    """Recover keep_rows x keep_len signed coefficients from a packed value."""
    n_slots = n_rows * stride
    nbytes = slot_bits // 8
    half = 1 << (slot_bits - 1)
    shifted = value + _offset_constant(n_slots, slot_bits)
    if shifted < 0:
        raise OverflowError("packed value out of range for slot width")
    raw = shifted.to_bytes(n_slots * nbytes, "little")
    rows = []
    for r in range(keep_rows):
        base = r * stride * nbytes
        rows.append(
            [
                int.from_bytes(raw[base + i * nbytes : base + (i + 1) * nbytes], "little")
                - half
                for i in range(keep_len)
            ]
        )
    return rows


def multiply_tables(
    a_rows: list[list[int]],
    b_rows: list[list[int]],
    keep_rows: int,
    keep_len: int,
) -> list[list[int]]:
    """Exact 2-D convolution of two coefficient tables, truncated on output.

    Rows within each table must share one length.  Row r of the result is
    sum over r1+r2 = r of conv(a_rows[r1], b_rows[r2]); only the first
    keep_rows rows and keep_len columns are returned.
    """
    la = max((len(r) for r in a_rows), default=0)
    lb = max((len(r) for r in b_rows), default=0)
    if la == 0 or lb == 0 or not a_rows or not b_rows:
        return [[0] * keep_len for _ in range(keep_rows)]
    stride = la + lb - 1
    bits = slot_bits_for(a_rows, b_rows)
    prod = pack(a_rows, stride, bits) * pack(b_rows, stride, bits)
    out_rows = len(a_rows) + len(b_rows) - 1
    got_rows = min(keep_rows, out_rows)
    got_len = min(keep_len, stride)
    rows = unpack(prod, out_rows, stride, bits, got_rows, got_len)
    for row in rows:
        row += [0] * (keep_len - got_len)
    rows += [[0] * keep_len for _ in range(keep_rows - got_rows)]
    return rows


def convolve(a: list[int], b: list[int], keep_len: int) -> list[int]:
    """Exact 1-D convolution of two coefficient lists, truncated to keep_len."""
    return multiply_tables([a], [b], 1, keep_len)[0]
