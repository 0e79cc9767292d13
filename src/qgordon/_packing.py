"""Kronecker-substitution kernels: exact polynomial arithmetic on packed ints.

Evaluating a polynomial at q = 2**B packs its coefficients into one Python
int, B bits a slot.  The map q -> 2**B is a ring homomorphism from Z[q] to Z,
and as it sends q**L to 2**(L*B) it is also one from Z[q]/(q**L) to
Z/2**(L*B).  So sums, shifts (times q**e), products, and divisions by a unit
1 - q**m (times 1 + q**m + q**2m + ...) done on packed ints give the packed
image of the true result modulo 2**(L*B), whatever the intermediate values
are.  Balanced base-2**B digits read back recover that result exactly when
every coefficient read satisfies |c| < 2**(B-1); that is the only condition.

Two kernels rest on it:

* multiply_tables: one bigint multiply per 2-D convolution of coefficient
  tables (CPython's subquadratic multiplication beats a Python-level O(n^2)
  loop).  slot_bits_for() derives the width from the operands, so it is
  exact for arbitrary integers.
* the row kernel: a table's q-rows held as one packed int each and updated by
  shift-adds, with divide_unit for 1 / (1 - q**m).  The caller carries a
  bound on |coefficient| through the same steps (a sum adds bounds, a
  division by 1 - q**m on L slots multiplies by (L-1)//m + 1) and takes the
  width from it with slot_width(); respread() moves a row to a wider width.

read_slots (built on _decode) is the one slot reader: balanced signed digits
for both kernels, plain unsigned digits for the counter DP.

Below both kernels sit the two unpacked row primitives, mul_binomial and
div_binomial, which multiply or divide a caller's list-of-rows table by a
binomial in place, and DomainError.  They need nothing but the standard
library, so the counters (counting) build their rows without loading the
series ring; series re-exports all three.
"""

from __future__ import annotations

import sys

# memoryview formats that decode whole slots natively (little-endian hosts)
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}
# byte -> the byte that sign-extends it
_SIGN_FILL = bytes(128) + b"\xff" * 128


class DomainError(ValueError):
    """Input outside the mathematical domain of the operation."""


def mul_binomial(rows: list[list[int]], a: int, e: int, c: int) -> None:
    """Multiply the table by 1 + c x^a q^e in place.

    rows[m][t] is the coefficient of x^m q^t.  Row m gains c q^e times row
    m - a, with the rows swept from the top down so that every row read
    still holds the old product (at a = 0 each row is rebuilt from its old
    self in one pass).  A factor beyond the window changes nothing.
    """
    for m in range(len(rows) - 1, a - 1, -1):
        dst, src = rows[m], rows[m - a]
        dst[e:] = [u + c * v for u, v in zip(dst[e:], src)]


def div_binomial(rows: list[list[int]], a: int, e: int) -> None:
    """Divide the table by 1 - x^a q^e in place, (a, e) != (0, 0).

    Row m gains q^e times row m - a, with the rows (and, at a = 0, the
    q-exponents) swept upward so that every entry read already holds the
    quotient.
    """
    if a == 0:
        for row in rows:
            for t in range(e, len(row)):
                row[t] += row[t - e]
        return
    for m in range(a, len(rows)):
        dst, src = rows[m], rows[m - a]
        dst[e:] = [u + v for u, v in zip(dst[e:], src)]


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


def slot_width(bound: int) -> int:
    """Row-kernel slot width (bits, a multiple of 64) that reads back every
    coefficient with |c| <= bound: bound < 2**(width - 1)."""
    return (bound.bit_length() // 64 + 1) * 64


def _offset_constant(n_slots: int, slot_bits: int) -> int:
    # half * (1 + 2^B + 2^2B + ...), the top bit of every slot: adding it
    # makes every balanced digit land in [0, 2^B), so no slot borrows from
    # the next, and XOR-ing it back turns each slot into its two's complement
    return int.from_bytes((bytes(slot_bits // 8 - 1) + b"\x80") * n_slots, "little")


def _widen(raw: bytes, nbytes: int, new_nbytes: int, signed: bool) -> bytearray:
    """Each little-endian nbytes-wide slot of raw, sign- or zero-extended
    to new_nbytes."""
    out = bytearray(len(raw) // nbytes * new_nbytes)
    for b in range(nbytes):
        out[b::new_nbytes] = raw[b::nbytes]
    if signed:
        fill = raw[nbytes - 1 :: nbytes].translate(_SIGN_FILL)
        for b in range(nbytes, new_nbytes):
            out[b::new_nbytes] = fill
    return out


def _decode(raw: bytes, nbytes: int, signed: bool) -> list[int]:
    """The little-endian nbytes-wide slots of raw, as two's-complement
    (signed) or plain (unsigned) integers.  Slots of up to 16 bytes are
    widened to 8 or 16 and cast to native 8-byte words, two words a slot at
    16; wider slots are read one at a time."""
    if not _FORMATS or nbytes > 16:
        return [
            int.from_bytes(raw[i : i + nbytes], "little", signed=signed)
            for i in range(0, len(raw), nbytes)
        ]
    if nbytes not in _FORMATS and nbytes != 16:
        wide = 8 if nbytes < 8 else 16
        raw, nbytes = _widen(raw, nbytes, wide, signed), wide
    if nbytes == 16:
        low = memoryview(raw).cast("Q")[0::2].tolist()
        high = memoryview(raw).cast("q" if signed else "Q")[1::2].tolist()
        return [lo | (hi << 64) for lo, hi in zip(low, high)]
    fmt = _FORMATS[nbytes]
    return memoryview(raw).cast(fmt.lower() if signed else fmt).tolist()


def _twos(value: int, n_slots: int, slot_bits: int) -> bytes:
    """The balanced digits of value modulo 2**(n_slots*slot_bits), each
    slot as its little-endian two's complement."""
    top = _offset_constant(n_slots, slot_bits)
    value = ((value + top) & ((1 << (n_slots * slot_bits)) - 1)) ^ top
    return value.to_bytes(n_slots * (slot_bits // 8), "little")


def read_slots(value: int, n_slots: int, slot_bits: int, signed: bool = True) -> list[int]:
    """The first n_slots base-2**slot_bits digits of value, lowest first.

    signed: the balanced digits, in [-2**(B-1), 2**(B-1)), of value modulo
    2**(n_slots*B); value may be any int.  Otherwise the plain digits of
    0 <= value < 2**(n_slots*B).
    """
    if signed:
        return _decode(_twos(value, n_slots, slot_bits), slot_bits // 8, True)
    return _decode(value.to_bytes(n_slots * (slot_bits // 8), "little"), slot_bits // 8, False)


def pack(rows: list[list[int]], stride: int, slot_bits: int) -> int:
    """Evaluate sum_{r,i} rows[r][i] * 2^(slot_bits*(r*stride+i)) exactly.

    A coefficient outside [-2^(B-1), 2^(B-1)) does not fit its slot and is
    added as its own shifted int, so the value is exact for any width."""
    n_slots = len(rows) * stride
    nbytes = slot_bits // 8
    half = 1 << (slot_bits - 1)
    buf = bytearray(half.to_bytes(nbytes, "little") * n_slots)
    wide = 0
    for r, row in enumerate(rows):
        base = r * stride * nbytes
        for i, c in enumerate(row):
            if c:
                try:
                    buf[base + i * nbytes : base + (i + 1) * nbytes] = (c + half).to_bytes(
                        nbytes, "little"
                    )
                except OverflowError:
                    wide += c << (8 * (base + i * nbytes))
    return int.from_bytes(buf, "little") - _offset_constant(n_slots, slot_bits) + wide


def unpack(
    value: int, stride: int, slot_bits: int, keep_rows: int, keep_len: int
) -> list[list[int]]:
    """The first keep_len balanced digits of each of the first keep_rows
    rows of stride slots of value (read_slots)."""
    flat = read_slots(value, keep_rows * stride, slot_bits)
    return [flat[base : base + keep_len] for base in range(0, keep_rows * stride, stride)]


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
    rows = unpack(prod, stride, bits, got_rows, got_len)
    for row in rows:
        row += [0] * (keep_len - got_len)
    rows += [[0] * keep_len for _ in range(keep_rows - got_rows)]
    return rows


def convolve(a: list[int], b: list[int], keep_len: int) -> list[int]:
    """Exact 1-D convolution of two coefficient lists, truncated to keep_len."""
    return multiply_tables([a], [b], 1, keep_len)[0]


# ---------------------------------------------------------------------------
# the row kernel
# ---------------------------------------------------------------------------


def divide_unit(value: int, e: int, n_slots: int, slot_bits: int) -> int:
    """value / (1 - q^e) modulo q^n_slots, e >= 1, masked to n_slots slots.

    Times (1 + q^e)(1 + q^2e)(1 + q^4e)..., doubling while the step is
    below n_slots: that is 1 + q^e + q^2e + ... through q^(n_slots - 1).
    """
    step = e
    while step < n_slots:
        value += value << (step * slot_bits)
        step += step
    return value & ((1 << (n_slots * slot_bits)) - 1)


def respread(value: int, n_slots: int, slot_bits: int, new_bits: int) -> int:
    """The n_slots balanced digits of value at slot_bits, packed at new_bits
    >= slot_bits: each slot sign-extended in place, no digit read out."""
    raw = _widen(_twos(value, n_slots, slot_bits), slot_bits // 8, new_bits // 8, True)
    top = _offset_constant(n_slots, new_bits)
    return (int.from_bytes(raw, "little") ^ top) - top
