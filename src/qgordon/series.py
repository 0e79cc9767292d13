"""Exact truncated formal power series in (x, q), and in q alone.

All coefficients are arbitrary-precision Python ints; nothing is ever rounded.
One ring implementation, BiSeries, holds coefficients for x-exponents
0..x_order and q-exponents q_offset..trunc_order, where q_offset may be
negative (Laurent head room for the q^(-n a) factors that appear in the
constructed series).  PowerSeries is its x_order = 0, q_offset = 0 case: a
subclass with a univariate constructor and accessors, whose arithmetic is
BiSeries's and returns PowerSeries.

Completeness contract: an instance stores the *exact* coefficients of the
series it represents on its stated window; content above trunc_order is
discarded.  Operations that would lose completeness instead shrink the stated
window: multiplying by q^e with e < 0 lowers trunc_order by |e|, so callers
must build with head room and finish with an explicit truncated() call.
The product * is the exception: it is the product of the two stored windows,
cut at q^N = trunc_order, and keeps trunc_order even when a factor has a
negative q-offset.  As a series it is exact only through
q^(N + min(0, both offsets)), since the content a factor dropped above q^N
would land below q^N in the product.  Mixing truncation orders in arithmetic
raises TruncationMismatch rather than silently re-truncating.

Every value is immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
The row primitives mul_binomial and div_binomial are the exception: they
update a caller's own list-of-rows table in place.  They and DomainError
are defined in _packing, so that the counters can use them without this
module, and are importable from here as before.
"""

from __future__ import annotations

import csv
from typing import Iterable, NamedTuple

from . import _packing
# defined in _packing, the stdlib-only bottom layer, and importable from here
from ._packing import DomainError, div_binomial, mul_binomial


class TruncationMismatch(ValueError):
    """Operands carry different truncation windows (configuration error)."""


class OrdinarinessError(ValueError):
    """A series expected to have no negative q-exponents has one."""


class BiSeries:
    """Truncated exact series in (x, q) with an integer q-offset."""

    __slots__ = ("x_order", "trunc_order", "q_offset", "rows")

    def __init__(
        self,
        rows: Iterable[Iterable[int]],
        x_order: int,
        trunc_order: int,
        q_offset: int = 0,
    ):
        if x_order < 0:
            raise DomainError("x_order must be non-negative")
        if q_offset > trunc_order:
            # empty q-window: canonicalize to the zero series at offset 0
            q_offset = 0
            rows = []
        width = trunc_order - q_offset + 1
        rs = [list(r) for r in rows]
        if len(rs) > x_order + 1:
            raise ValueError("more rows than x_order allows")
        for r in rs:
            if len(r) > width:
                raise ValueError("row longer than the q-window allows")
        full = [tuple(r + [0] * (width - len(r))) for r in rs]
        full += [tuple([0] * width)] * (x_order + 1 - len(full))
        object.__setattr__(self, "x_order", x_order)
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "q_offset", q_offset)
        object.__setattr__(self, "rows", tuple(full))

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, rows, trunc_order: int, q_offset: int) -> "BiSeries":
        """A result of an operation on self, at self's x_order and of its type.

        Every operation builds its result here, so a subclass that overrides
        this hook gets results of its own type.
        """
        return BiSeries(rows, self.x_order, trunc_order, q_offset)

    @classmethod
    def zero(cls, x_order: int, trunc_order: int) -> "BiSeries":
        return cls((), x_order, trunc_order)

    @classmethod
    def one(cls, x_order: int, trunc_order: int) -> "BiSeries":
        return cls(((1,),), x_order, trunc_order)

    @classmethod
    def monomial(
        cls, coeff: int, x_exp: int, q_exp: int, x_order: int, trunc_order: int
    ) -> "BiSeries":
        if x_exp < 0:
            raise DomainError("x-exponents must be non-negative")
        if x_exp > x_order or q_exp > trunc_order:
            return cls.zero(x_order, trunc_order)
        rows = [[0]] * x_exp + [[coeff]]
        return cls(rows, x_order, trunc_order, q_offset=q_exp)

    @classmethod
    def from_power_series(cls, ps: "PowerSeries", x_order: int) -> "BiSeries":
        return cls(ps.rows, x_order, ps.trunc_order)

    def coefficient(self, x_exp: int, q_exp: int) -> int:
        if x_exp > self.x_order or q_exp > self.trunc_order:
            raise TruncationMismatch(
                f"coefficient of x^{x_exp} q^{q_exp} lies beyond the truncation window"
            )
        if x_exp < 0 or q_exp < self.q_offset:
            return 0
        return self.rows[x_exp][q_exp - self.q_offset]

    def _check(self, other: "BiSeries") -> None:
        if self.x_order != other.x_order or self.trunc_order != other.trunc_order:
            raise TruncationMismatch(
                f"truncation windows differ: ({self.x_order}, {self.trunc_order}) "
                f"vs ({other.x_order}, {other.trunc_order})"
            )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        self._check(other)
        lo, hi = (self, other) if self.q_offset <= other.q_offset else (other, self)
        cut = hi.q_offset - lo.q_offset
        rows = []
        for a, b in zip(lo.rows, hi.rows):
            row = list(a)
            row[cut:] = [u + v for u, v in zip(a[cut:], b)]
            rows.append(row)
        return self._like(rows, self.trunc_order, lo.q_offset)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self.__add__(-other)

    def __neg__(self) -> "BiSeries":
        return self._like(
            [[-c for c in row] for row in self.rows], self.trunc_order, self.q_offset
        )

    def __mul__(self, other: "BiSeries | int") -> "BiSeries":
        """The product of the stored windows, cut at q^trunc_order, which it
        keeps (see the completeness contract): for factors at q-offsets o1 and
        o2 it is exact as a series only through q^(trunc_order + min(0, o1, o2))."""
        if isinstance(other, int):
            return self._like(
                [[other * c for c in row] for row in self.rows],
                self.trunc_order,
                self.q_offset,
            )
        self._check(other)
        off = self.q_offset + other.q_offset
        keep_len = self.trunc_order - off + 1
        if keep_len <= 0:
            return self._like((), self.trunc_order, 0)
        rows = _packing.multiply_tables(
            [list(r) for r in self.rows],
            [list(r) for r in other.rows],
            self.x_order + 1,
            keep_len,
        )
        return self._like(rows, self.trunc_order, off)

    def __rmul__(self, other: int) -> "BiSeries":
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSeries):
            return NotImplemented
        self._check(other)
        return self.first_difference(other) is None

    def __hash__(self) -> int:
        # equal series may differ in leading zero q-columns (see __eq__), so
        # hash from the first column that holds a nonzero coefficient
        lead = min(next((i for i, c in enumerate(row) if c), len(row)) for row in self.rows)
        rows = tuple(row[lead:] for row in self.rows)
        return hash((self.x_order, self.trunc_order, self.q_offset + lead, rows))

    def __repr__(self) -> str:
        terms = []
        for m, row in enumerate(self.rows):
            for i, c in enumerate(row):
                if c:
                    terms.append(f"{c}*x^{m}*q^{i + self.q_offset}")
                if len(terms) > 6:
                    break
            if len(terms) > 6:
                break
        body = " + ".join(terms) if terms else "0"
        return (
            f"{type(self).__name__}({body} + ..., x_order={self.x_order}, "
            f"trunc_order={self.trunc_order}, q_offset={self.q_offset})"
        )

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    def first_difference(self, other: "BiSeries"):
        """First (x_exp, q_exp, self_coeff, other_coeff) difference, or None.

        Reported in (q_exp, x_exp) order, so the lowest differing q-power
        comes first.  Whole rows are compared on the common window; only the
        rows that differ are scanned, each no further than the best q-power
        found so far.
        """
        self._check(other)
        lo = min(self.q_offset, other.q_offset)
        pad_a = (0,) * (self.q_offset - lo)
        pad_b = (0,) * (other.q_offset - lo)
        best = None
        for m, (a, b) in enumerate(zip(self.rows, other.rows)):
            a, b = pad_a + a, pad_b + b
            if a == b:
                continue
            stop = len(a) if best is None else best[1] - lo
            for i, (u, v) in enumerate(zip(a[:stop], b)):
                if u != v:
                    best = (m, lo + i, u, v)
                    break
        return best

    def times_monomial(self, coeff: int, x_exp: int, q_exp: int) -> "BiSeries":
        """Multiply by coeff * x^x_exp * q^q_exp exactly.

        A negative q_exp lowers trunc_order by |q_exp|: the content above the
        new order was never computed, so the window must shrink to stay exact.
        """
        if x_exp < 0:
            raise DomainError("x-exponents must be non-negative")
        new_trunc = self.trunc_order + min(q_exp, 0)
        new_off = self.q_offset + q_exp
        width = new_trunc - new_off + 1
        if width <= 0 or x_exp > self.x_order:
            return self._like((), max(new_trunc, 0), 0)
        rows = [[0] * width for _ in range(x_exp)]
        for m in range(self.x_order + 1 - x_exp):
            rows.append([coeff * c for c in self.rows[m][:width]])
        return self._like(rows, new_trunc, new_off)

    def truncated(self, new_order: int) -> "BiSeries":
        if new_order > self.trunc_order:
            raise TruncationMismatch("cannot extend a truncated series")
        off = self.q_offset
        if off > new_order:
            return self._like((), new_order, 0)
        width = new_order - off + 1
        return self._like([row[:width] for row in self.rows], new_order, off)

    def x_to_xq(self) -> "BiSeries":
        """Substitute x -> x*q: the x^m row shifts up by q^m, exactly."""
        off = self.q_offset
        width = self.trunc_order - off + 1
        rows = []
        for m, row in enumerate(self.rows):
            rows.append([0] * min(m, width) + list(row[: max(width - m, 0)]))
        return self._like(rows, self.trunc_order, off)

    def is_ordinary(self) -> bool:
        """True when no nonzero coefficient sits at a negative q-exponent."""
        if self.q_offset >= 0:
            return True
        neg = -self.q_offset
        return not any(any(row[:neg]) for row in self.rows)

    def as_ordinary(self) -> "BiSeries":
        """Assert ordinariness and renormalize the offset to 0."""
        if not self.is_ordinary():
            m, j, c, _ = next(
                (m, j + self.q_offset, row[j], 0)
                for m, row in enumerate(self.rows)
                for j in range(-self.q_offset)
                if row[j]
            )
            raise OrdinarinessError(
                f"nonzero coefficient {c} at x^{m} q^{j} (negative q-exponent)"
            )
        if self.q_offset == 0:
            return self
        if self.q_offset < 0:
            cut = -self.q_offset
            return self._like([row[cut:] for row in self.rows], self.trunc_order, 0)
        pad = self.q_offset
        return self._like(
            [[0] * pad + list(row) for row in self.rows], self.trunc_order, 0
        )

    def invert_unit(self) -> "BiSeries":
        """Inverse in the truncated ring; x^0 q^0 coefficient must be +-1."""
        if self.q_offset != 0:
            raise DomainError("invert_unit requires q_offset = 0")
        f = self.rows[0]
        c0 = f[0]
        if c0 not in (1, -1):
            raise DomainError("constant term must be a unit (+1 or -1)")
        n = self.trunc_order
        width = n + 1
        g0 = [0] * width
        g0[0] = c0  # 1/c0 == c0 for c0 in {1, -1}
        for j in range(1, width):
            acc = 0
            for v in range(1, j + 1):
                if f[v]:
                    acc += f[v] * g0[j - v]
            g0[j] = -c0 * acc
        g_rows = [g0]
        for m in range(1, self.x_order + 1):
            acc = [0] * width
            for i in range(1, m + 1):
                fi = self.rows[i]
                if not any(fi):
                    continue
                conv = _packing.convolve(list(fi), g_rows[m - i], width)
                for t in range(width):
                    acc[t] += conv[t]
            neg = [-c for c in acc]
            g_rows.append(_packing.convolve(neg, g0, width))
        return self._like(g_rows, n, 0)


class PowerSeries(BiSeries):
    """Truncated exact power series in q (exponents 0..trunc_order): the
    x_order = 0, q_offset = 0 BiSeries, with univariate adapters."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[int], trunc_order: int):
        if trunc_order < 0:
            raise DomainError("trunc_order must be non-negative")
        cs = list(coeffs)
        if len(cs) > trunc_order + 1:
            raise ValueError("more coefficients than trunc_order allows")
        super().__init__((cs,), 0, trunc_order)

    def _like(self, rows, trunc_order: int, q_offset: int) -> "PowerSeries":
        # times_monomial gives a positive offset; it becomes leading zeros
        return PowerSeries([0] * q_offset + list(rows[0] if rows else ()), trunc_order)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.rows[0]

    @classmethod
    def zero(cls, trunc_order: int) -> "PowerSeries":
        return cls((), trunc_order)

    @classmethod
    def one(cls, trunc_order: int) -> "PowerSeries":
        return cls((1,), trunc_order)

    @classmethod
    def monomial(cls, coeff: int, q_exp: int, trunc_order: int) -> "PowerSeries":
        return cls.one(trunc_order).times_monomial(coeff, q_exp)

    def coefficient(self, n: int) -> int:
        return super().coefficient(0, n)

    def times_monomial(self, coeff: int, q_exp: int) -> "PowerSeries":
        if q_exp < 0:
            raise DomainError("PowerSeries cannot hold negative q-exponents")
        return super().times_monomial(coeff, 0, q_exp)

    def first_difference(self, other: "PowerSeries"):
        """First (n, self_coeff, other_coeff) where the two differ, or None."""
        diff = super().first_difference(other)
        return None if diff is None else diff[1:]

    def __eq__(self, other) -> bool:
        # unequal to every other BiSeries, and (unlike BiSeries) to a series
        # of another truncation, rather than raising
        if not isinstance(other, BiSeries):
            return NotImplemented
        return (
            isinstance(other, PowerSeries)
            and self.trunc_order == other.trunc_order
            and self.rows == other.rows
        )

    __hash__ = BiSeries.__hash__


class XOneResult(NamedTuple):
    """Result of an x = 1 specialization with its guaranteed-exact q-degree."""

    series: PowerSeries
    exact_order: int


def poch_finite(
    coeff: int,
    x_exp: int,
    q_exp: int,
    step: int,
    n: int,
    x_order: int,
    trunc_order: int,
) -> BiSeries:
    """(z; q^step)_n for the monomial z = coeff * x^x_exp * q^q_exp.

    The finite product (1 - z)(1 - z q^step) ... (1 - z q^(step*(n-1))),
    truncated to the (x_order, trunc_order) window.  n = 0 gives 1.  Both
    x_exp and q_exp must be at least 0, as in poch_inf; a negative exponent
    raises DomainError.  Each factor is multiplied in place (mul_binomial).
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if step < 1:
        raise DomainError("step must be at least 1")
    if x_exp < 0 or q_exp < 0:
        raise DomainError("z must be an ordinary monomial")
    rows = [[0] * (trunc_order + 1) for _ in range(x_order + 1)]
    rows[0][0] = 1
    for j in range(n):
        mul_binomial(rows, x_exp, q_exp + step * j, -coeff)
    return BiSeries(rows, x_order, trunc_order)


def poch_inf(
    coeff: int,
    x_exp: int,
    q_exp: int,
    step: int,
    x_order: int,
    trunc_order: int,
) -> BiSeries:
    """(z; q^step)_inf for the monomial z = coeff * x^x_exp * q^q_exp.

    Factors are folded until the first one that is identically 1 on the
    truncation window; all later factors differ from 1 only beyond it, since
    their lone non-constant term has a strictly larger q-exponent.
    """
    if x_exp == 0 and q_exp == 0:
        raise DomainError("z must not be a constant")
    if x_exp < 0 or q_exp < 0:
        raise DomainError("z must be an ordinary monomial")
    if step < 1:
        raise DomainError("step must be at least 1")
    if x_exp > x_order:
        return BiSeries.one(x_order, trunc_order)
    n_factors = 0
    while q_exp + step * n_factors <= trunc_order:
        n_factors += 1
    return poch_finite(coeff, x_exp, q_exp, step, n_factors, x_order, trunc_order)


def q_poch_finite(coeff: int, q_exp: int, step: int, n: int, trunc_order: int) -> PowerSeries:
    """Univariate (z; q^step)_n for z = coeff * q^q_exp, as a PowerSeries."""
    bi = poch_finite(coeff, 0, q_exp, step, n, 0, trunc_order)
    return PowerSeries(bi.rows[0], trunc_order)


def q_poch_inf(coeff: int, q_exp: int, step: int, trunc_order: int) -> PowerSeries:
    """Univariate (z; q^step)_inf for z = coeff * q^q_exp, q_exp >= 1."""
    if q_exp < 1:
        raise DomainError("univariate infinite products need q_exp >= 1")
    bi = poch_inf(coeff, 0, q_exp, step, 0, trunc_order)
    return PowerSeries(bi.rows[0], trunc_order)


def triple_product(c: int, modulus: int, trunc_order: int) -> PowerSeries:
    """(q^c; q^M)_inf (q^(M-c); q^M)_inf (q^M; q^M)_inf for M = modulus.

    Requires 1 <= c <= M.  c = M makes the middle factor (q^0; q^M)_inf,
    whose first term (1 - 1) annihilates everything, so the result is 0.
    Every factor 1 - q^e with e <= trunc_order of the three products is
    multiplied into one row in place (mul_binomial).
    """
    if not 1 <= c <= modulus:
        raise DomainError(f"c must satisfy 1 <= c <= {modulus}, got {c}")
    if c == modulus:
        return PowerSeries.zero(trunc_order)
    rows = [[1] + [0] * trunc_order]
    for first in (c, modulus - c, modulus):
        for e in range(first, trunc_order + 1, modulus):
            mul_binomial(rows, 0, e, -1)
    return PowerSeries(rows[0], trunc_order)


def theta_laurent(c: int, modulus: int, trunc_order: int) -> BiSeries:
    """Bilateral alternating theta sum over all integers n of
    (-1)^n q^(M n(n-1)/2 + c n), truncated; M = modulus.

    A univariate (x_order 0) Laurent object, so that any c is allowed; its
    q-offset is the least exponent reached, or 0.  By the Jacobi triple
    product identity this equals triple_product(c, M) for 1 <= c <= M; it
    is the independent oracle for that routine.
    """
    if modulus < 1:
        raise DomainError("modulus must be at least 1")
    terms: dict[int, int] = {}
    for sign in (1, -1):
        n = 0 if sign == 1 else -1
        while True:
            e = modulus * n * (n - 1) // 2 + c * n
            if e > trunc_order:
                break
            terms[e] = terms.get(e, 0) + (1 if n % 2 == 0 else -1)
            n += sign
    off = min([0, *terms])
    row = [0] * (trunc_order - off + 1)
    for e, v in terms.items():
        row[e - off] += v
    return BiSeries([row], 0, trunc_order, off)


def theta_bilateral(c: int, modulus: int, trunc_order: int) -> PowerSeries:
    """theta_laurent as a PowerSeries; DomainError if an exponent is negative."""
    theta = theta_laurent(c, modulus, trunc_order)
    if theta.q_offset < 0:
        raise DomainError("theta sum has a negative exponent at these parameters")
    return PowerSeries(theta.rows[0], trunc_order)


def sum_x_rows(f: BiSeries) -> BiSeries:
    """Specialize x = 1 in Laurent space: the x-rows summed into one row
    (x_order 0), with no ordinariness requirement."""
    return BiSeries([[sum(col) for col in zip(*f.rows)]], 0, f.trunc_order, f.q_offset)


def eval_x_one(f: BiSeries) -> XOneResult:
    """Specialize x = 1 by summing the x-rows.

    Requires an ordinary series.  The returned exact_order is
    trunc_order - x_order: the specialization of the *truncated* table is a
    complete representation of the true specialization only as far as the
    discarded x-degrees (> x_order) provably cannot reach, and for the
    constrained-multiplicity series handled here their content sits at
    q-degrees growing with the x-degree.
    """
    if not f.is_ordinary():
        raise OrdinarinessError("x = 1 specialization requires an ordinary series")
    g = sum_x_rows(f).as_ordinary()
    return XOneResult(PowerSeries(g.rows[0], g.trunc_order), g.trunc_order - f.x_order)


def write_coefficients_csv(fileobj, series: BiSeries) -> int:
    """Write nonzero coefficients as rows (x_exp, q_exp, decimal string).

    Returns the number of data rows written.
    """
    writer = csv.writer(fileobj)
    writer.writerow(["x_exp", "q_exp", "coefficient"])
    count = 0
    for m, row in enumerate(series.rows):
        for i, c in enumerate(row):
            if c:
                writer.writerow([m, i + series.q_offset, str(c)])
                count += 1
    return count
