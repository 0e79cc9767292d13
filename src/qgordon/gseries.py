"""Closed-form series construction and functional-equation verification.

The two-parameter generating functions under test are built three ways:

* constructed_gf: the explicit summand families alpha[s]_n / beta[s]_n,
  combined as sum_n alpha[s]_n q^(-n a) + beta[s]_n (x q^(n+1))^a;
* enumerated_gf: coefficients taken from the partition counter tables;
* recurrence_gf: coefficients filled from the defining functional equation
  alone (split off the 1s, shift everything down by one).

All three live in the truncated (x, q) ring of series.BiSeries.  The summand
families contain q^(-n s) and q^(-n a) factors, so intermediate objects carry
negative q-offsets; every builder takes the target truncation and internally
computes with at least the head room the shifts require.

The summands are not multiplied out of their Pochhammer factors: their
x-rows follow one by one from the first-order q-difference equation in x
that those factors satisfy (see _build_summand), with no bivariate product.
Each x-row is held as one Kronecker-packed int (_Packed, the row kernel of
_packing): q -> 2^B is a ring homomorphism from Z[q]/(q^L) to Z/2^(L B),
so a row sweep is one bigint shift-add, a division by 1 - q^m a few
doubling shift-adds, and all of it is exact modulo 2^(L B).  Reading the
rows back is exact when every coefficient read has |c| < 2^(B-1).  The
width B is derived, not assumed: a bound on |coefficient| is carried
through the same steps (a sum adds bounds, a division by 1 - q^m on L slots
multiplies by (L-1)//m + 1), and B is the least multiple of 64 with
bound < 2^(B-1).

Each summand family is built once, on its support window, and kept packed
at the deepest truncation asked for; alpha summands are asked with the head
room of the largest lower index a <= k and beta summands with that of the
least, 1 - d, so that every sweep shares one build.  Sums of shifted
summands are shift-added into one packed row per x-power (_sum_terms), at
the width of the total of their bounds.  The summand displays and the
functional equation compare their two sides as packed ints and read
coefficients back only to locate a mismatch; summand_series and
constructed_gf return BiSeries read back from the packed rows.  The x = 1
specialization sums the packed x-rows into one row, and the x = 1 product
forms are packed rows too: a numerator of shift-adds, divided by 1 - q^d and
multiplied once by the held p(n) row (counting.partition_counts), so no
series is inverted.

Pure functions + idempotent memo dicts: safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import _packing
from .counting import (
    OVER,
    REGULAR,
    CountParams,
    count_table,
    min_admissible_weight,
    modulus,
    partition_counts,
)
from .series import BiSeries, DomainError, TruncationMismatch, theta_laurent, triple_product

_summand_cache: dict = {}


class _Packed(NamedTuple):
    """A truncated (x, q) series with each x-row held as one packed int.

    Row m packs the coefficients of x^m q^(q_offset + i), i = 0..L-1 with
    L = trunc_order - q_offset + 1, into B = bits bit slots (_packing), as a
    residue modulo 2^(L B).  Every coefficient satisfies |c| <= bound, and
    bits = _packing.slot_width(bound) or wider, so series() reads it back
    exactly.
    """

    rows: list
    x_order: int
    trunc_order: int
    q_offset: int
    bits: int
    bound: int

    @classmethod
    def zero(cls, x_order: int, trunc_order: int) -> "_Packed":
        return cls([0] * (x_order + 1), x_order, trunc_order, 0, _packing.slot_width(0), 0)

    def series(self, trunc_order: Optional[int] = None) -> BiSeries:
        """The BiSeries it holds, cut to trunc_order (default: its own)."""
        N = self.trunc_order if trunc_order is None else trunc_order
        if N > self.trunc_order:
            raise TruncationMismatch("cannot extend a truncated series")
        n_slots = N - self.q_offset + 1
        if n_slots <= 0:
            return BiSeries.zero(self.x_order, N)
        rows = [_packing.read_slots(r, n_slots, self.bits) if r else () for r in self.rows]
        return BiSeries(rows, self.x_order, N, self.q_offset)


def _quadratic_weight(k: int, d: int, flavor: str, n: int) -> int:
    """Exponent of the pure q-power in the n-th summand: grows quadratically."""
    return modulus(k, d, flavor) * n * (n + 1) // 2


def summand_series(
    kind: str,
    k: int,
    d: int,
    s: int,
    n: int,
    flavor: str,
    x_order: int,
    trunc_order: int,
    packed: bool = False,
) -> BiSeries | _Packed:
    """The n-th summand family alpha[s]_n or beta[s]_n at exact truncation.

    kind is "alpha" or "beta".  The result carries its own q^(-n s) (alpha)
    or q^(-n (d-s)) (beta) factor, hence a negative q-offset for n >= 1; it
    is exact on [q_offset, trunc_order].  n = -1 is the empty summand (zero),
    matching the convention that makes the n = 0 recurrence instances assert
    a vanishing left-hand side.

    Memo policy: one build per family (kind, k, d, s, n, flavor, x_order),
    with no truncation in the key.  _summand_cache holds the deepest build
    asked for so far, packed (_Packed); a request it covers is served from
    it and a deeper request rebuilds the family and replaces it.  The
    BiSeries returned is read from the packed rows at exactly trunc_order.
    With packed=True the held _Packed itself is returned, exact at
    trunc_order or deeper, for the packed sums (_sum_terms).
    """
    if kind not in ("alpha", "beta"):
        raise DomainError(f"unknown summand kind {kind!r}")
    if n == -1:
        zero = _Packed.zero(x_order, trunc_order)
        return zero if packed else zero.series()
    if n < -1:
        raise DomainError("summand index must be >= -1")
    if not 0 <= s <= d - 1:
        raise DomainError("s must satisfy 0 <= s <= d-1")
    if (k + 1 - d) * n < 0:
        raise DomainError("x-exponents must be non-negative")
    key = (kind, k, d, s, n, flavor, x_order)
    held = _summand_cache.get(key)
    if held is None or held.trunc_order < trunc_order:
        held = _summand_cache[key] = _build_summand(
            kind, k, d, s, n, flavor, x_order, trunc_order
        )
    return held if packed else held.series(trunc_order)


def _build_summand(kind, k, d, s, n, flavor, x_order, trunc_order) -> _Packed:
    """One summand family at truncation trunc_order, for n >= 0, packed.

    The x-dependence is built from a q-difference equation rather than from
    products.  H(x) = ((xq)^d; q^d)_inf / ((xq; q)_inf ((x q^(n+1))^d; q^d)_inf),
    times (-x q^(n+1); q)_inf for overpartitions, satisfies

        L(x) H(xq) = R(x) H(x),   R = (1 - xq)(1 - x^d q^(d(n+1))),
                                  L = 1 - x^d q^d   (times 1 + x q^(n+1) over),

    so its x^m row is h_m = -(1 - q^m)^(-1) sum_(j>=1) (R_j - q^(m-j) L_j) h_(m-j).
    The recurrence is linear, so seeding h_0 with 1/(q^d; q^d)_n (times
    (-q; q)_n over) folds in the x-free factors.  The summand is then
    (-1)^n x^((k+1-d)n) q^(M n(n+1)/2) H(x) times the alpha or beta bracket,
    divided by 1 - (xq)^d, negated for beta.  Every step multiplies by a
    series without negative exponents or divides by 1 - x^a q^e, so nothing
    is nonzero below q^(q0 - shift), q0 = M n(n+1)/2.  The rows are built on
    that support window only, L = trunc_order + shift - q0 + 1 slots, and
    returned at q-offset q0 - shift.

    Each row is one packed int and each step a shift-add (_packing row
    kernel).  A bound on |coefficient| of every row is carried through the
    same steps first: the seed is at most 2^n (over) times the product of
    (L-1)//(d j) + 1, a division by 1 - q^m multiplies by (L-1)//m + 1, and
    a sum adds bounds.  The slot width comes from the largest bound of an
    output row; the h rows are never read, so they may wrap.
    """
    over = flavor == OVER
    shift = n * s if kind == "alpha" else n * (d - s)
    q0 = _quadratic_weight(k, d, flavor, n)
    top = trunc_order + shift - q0  # last q-exponent of the support window
    x0 = (k + 1 - d) * n
    if top < 0 or x0 > x_order:
        return _Packed.zero(x_order, trunc_order)
    L = top + 1  # slots of a row
    x_rows = x_order - x0 + 1  # rows of h that can reach the window
    # x^j coefficients of -R and of L as (j, coeff, q-exponent) monomials
    minus_r = [(1, 1, 1), (d, 1, d * (n + 1)), (d + 1, -1, d * (n + 1) + 1)]
    l_terms = [(d, -1, d)]
    if over:
        l_terms += [(1, 1, n + 1), (d + 1, -1, d + n + 1)]
    # the terms -R_j h_(m-j) and q^(m-j) L_j h_(m-j) of row m inside the window
    steps = [
        [(j, c, e) for j, c, e in minus_r if j <= m and e < L]
        + [(j, c, e + m - j) for j, c, e in l_terms if j <= m and e + m - j < L]
        for m in range(x_rows)
    ]
    # (-1)^n x^x0 times the bracket (negated for beta) as (coeff, x, q)
    # monomials inside the window; q^q0 is the offset
    qdn = d * n
    if kind == "alpha":
        bracket = [(1, 0, 0), (-1, d - s, d - s), (1, d - s, qdn + d - s), (-1, d, qdn + d)]
    else:
        bracket = [(1, 0, 0), (-1, s, s), (1, s, qdn + s), (-1, d, qdn + d)]
    sign = (1 if n % 2 == 0 else -1) * (1 if kind == "alpha" else -1)
    bracket = [(c * sign, a, e) for c, a, e in bracket if e < L]

    # the bounds
    seed = 2 ** min(n, top) if over else 1
    for j in range(1, n + 1):
        seed *= top // (d * j) + 1
    h_bound = [seed]
    for m in range(1, x_rows):
        h_bound.append((top // m + 1) * sum(h_bound[m - j] for j, _, _ in steps[m]))
    out_bound = [0] * (x_order + 1)
    for _, a, _ in bracket:
        for m in range(max(x_rows - a, 0)):
            out_bound[x0 + a + m] += h_bound[m]
    if d < L:
        for m in range(d, x_order + 1):
            out_bound[m] += out_bound[m - d]
    bound = max(out_bound)
    B = _packing.slot_width(bound)
    mask = (1 << (L * B)) - 1

    # the same steps on packed rows
    h = 1
    if over:
        for j in range(1, min(n, top) + 1):
            h += h << (j * B)
    for j in range(1, n + 1):
        if d * j <= top:
            h = _packing.divide_unit(h, d * j, L, B)
    h = [h & mask]
    for m in range(1, x_rows):
        acc = 0
        for j, c, e in steps[m]:
            acc += c * (h[m - j] << (e * B))
        h.append(_packing.divide_unit(acc, m, L, B))
    out = [0] * (x_order + 1)
    for c, a, e in bracket:
        for m, row in enumerate(h[: max(x_rows - a, 0)]):
            out[x0 + a + m] += c * (row << (e * B))
    if d < L:
        for m in range(d, x_order + 1):
            out[m] += out[m - d] << (d * B)
    return _Packed([r & mask for r in out], x_order, trunc_order, q0 - shift, B, bound)


def alpha_series(k, d, s, n, flavor, x_order, trunc_order) -> BiSeries:
    return summand_series("alpha", k, d, s, n, flavor, x_order, trunc_order)


def beta_series(k, d, s, n, flavor, x_order, trunc_order) -> BiSeries:
    return summand_series("beta", k, d, s, n, flavor, x_order, trunc_order)


# ---------------------------------------------------------------------------
# the constructed generating function
# ---------------------------------------------------------------------------


def _sum_terms(terms, x_order, trunc_order, bits: int = 0) -> _Packed:
    """Sum of coeff * x^mono_x q^mono_q * f(x q^at_xq) over the terms, packed.

    Each term is (f, coeff, mono_x, mono_q, at_xq) with f a _Packed and
    coeff 1 or -1.  The entry of f at x^m q^e lands at
    x^(m + mono_x) q^(e + mono_q + at_xq * m): each packed row is shifted
    and added into one packed row of the sum, and whatever lands past
    x_order or trunc_order is dropped.  That is exact because every f must
    be built at trunc_order - min(mono_q, 0) or deeper, so that it reaches
    trunc_order after the shift (the residue above its own window then lands
    above the sum's); a shallower f raises TruncationMismatch.

    The bound of the sum is the total of the terms' bounds, and its slot
    width is slot_width of that, or bits if wider; a term held at another
    width is re-spread to it.
    """
    off = min([0] + [f.q_offset + mono_q for f, _, _, mono_q, _ in terms])
    n_slots = trunc_order - off + 1
    bound = sum(f.bound for f, *_ in terms)
    bits = max(bits, _packing.slot_width(bound))
    rows = [0] * (x_order + 1)
    for f, coeff, mono_x, mono_q, at_xq in terms:
        if mono_x < 0 or coeff not in (1, -1):
            raise DomainError("terms need mono_x >= 0 and coeff 1 or -1")
        if f.x_order != x_order or f.trunc_order + min(mono_q, 0) < trunc_order:
            raise TruncationMismatch("term built short of the truncation it needs")
        src = f.rows[: max(x_order + 1 - mono_x, 0)]
        if f.bits != bits:
            f_slots = f.trunc_order - f.q_offset + 1
            src = [_packing.respread(r, f_slots, f.bits, bits) if r else 0 for r in src]
        base = f.q_offset + mono_q - off
        for m, r in enumerate(src):
            e = base + (m if at_xq else 0)
            if r and e < n_slots:
                rows[m + mono_x] += coeff * (r << (e * bits))
    mask = (1 << (n_slots * bits)) - 1
    return _Packed([r & mask for r in rows], x_order, trunc_order, off, bits, bound)


def _sums(term_lists, x_order, trunc_order) -> list[_Packed]:
    """_sum_terms of each list, all at one slot width, so that they compare."""
    bits = _packing.slot_width(max(sum(t[0].bound for t in terms) for terms in term_lists))
    return [_sum_terms(terms, x_order, trunc_order, bits) for terms in term_lists]


def _first_difference(lhs: _Packed, rhs: _Packed):
    """lhs.series().first_difference(rhs.series()), for two sums at one width.

    The packed rows are compared, aligned on the lower q-offset; the series
    are read back only to locate a mismatch.
    """
    if lhs.bits != rhs.bits:
        raise ValueError("packed sums of different slot widths do not compare")
    lo, hi = (lhs, rhs) if lhs.q_offset <= rhs.q_offset else (rhs, lhs)
    shift = (hi.q_offset - lo.q_offset) * lo.bits
    if all(u == v << shift for u, v in zip(lo.rows, hi.rows)):
        return None
    return lhs.series().first_difference(rhs.series())


def _summand_term(kind, k, d, s, n, flavor, x_order, trunc_order, mono_q) -> _Packed:
    """The summand of a (f, coeff, mono_x, mono_q, at_xq) term of _sum_terms,
    deep enough to reach trunc_order after the q^mono_q shift.

    Every caller of one family (the a = 1..k sweep, the displays, the
    functional equation) shares one build, because each kind is always
    asked with the head room of its most demanding lower index: n k for
    alpha (the q^(-n a) factor at a = k), and (n + 2)(d - 1) for beta (the
    (x q^(n+2))^a factor of a beta at argument xq, at a = 1 - d).
    """
    head = n * k if kind == "alpha" else (n + 2) * (d - 1)
    return summand_series(
        kind, k, d, s, n, flavor, x_order, trunc_order + max(-mono_q, head, 0), packed=True
    )


def _span_terms(k, d, s, a, flavor, x_order, trunc_order, at_xq, mono_x, mono_q, coeff=1):
    """Terms (see _sum_terms) of coeff x^mono_x q^mono_q times the sum over n
    of the two G-summand terms.

    With at_xq the substitution x -> xq is applied to the alpha/beta factors
    (and the attached (x q^(n+1))^a becomes (x q^(n+2))^a).  The lower index
    a may be any integer provided mono_x and mono_x + a are non-negative, so
    callers can fold (xq)^(a-1)-style prefactors into the monomial and never
    materialize negative x-powers.
    """
    if mono_x < 0 or mono_x + a < 0:
        raise DomainError("combined x-exponents must be non-negative")
    n_monotone = max(s + a, d - s - a, 1) // modulus(k, d, flavor) + 1
    terms = []
    n = 0
    while True:
        t_alpha = mono_q - n * a
        t_beta = mono_q + (n + 1 + (1 if at_xq else 0)) * a
        base = _quadratic_weight(k, d, flavor, n)
        minq_alpha = base - n * s + t_alpha
        minq_beta = base - n * (d - s) + t_beta
        x_floor = (k + 1 - d) * n + mono_x + min(0, a)
        if x_floor > x_order:
            break
        if n >= n_monotone and minq_alpha > trunc_order and minq_beta > trunc_order:
            break
        if (k + 1 - d) * n + mono_x <= x_order and minq_alpha <= trunc_order:
            f = _summand_term("alpha", k, d, s, n, flavor, x_order, trunc_order, t_alpha)
            terms.append((f, coeff, mono_x, t_alpha, at_xq))
        if (k + 1 - d) * n + mono_x + a <= x_order and minq_beta <= trunc_order:
            f = _summand_term("beta", k, d, s, n, flavor, x_order, trunc_order, t_beta)
            terms.append((f, coeff, mono_x + a, t_beta, at_xq))
        n += 1
    return terms


def constructed_gf(
    k, a, d, s, flavor, x_order, trunc_order, require_ordinary: bool = True
) -> BiSeries:
    """The closed-form generating function candidate.

    sum over n >= 0 of alpha[s]_n q^(-n a) + beta[s]_n (x q^(n+1))^a; the sum
    is finite at truncation (the n-th term's least q-exponent grows
    quadratically and its least x-exponent linearly).

    By default the result is asserted ordinary and offset-normalized; that
    assertion is a theorem exactly on the tuples where the enumerative
    identification applies.  Outside them negative q-exponents genuinely
    survive (e.g. k=4, a=4, d=4, s=3 keeps an x q^(-1) term), so checkers
    that sweep all tuples pass require_ordinary=False and work with the
    Laurent object directly.
    """
    terms = _constructed_terms(k, a, d, s, flavor, x_order, trunc_order)
    span = _sum_terms(terms, x_order, trunc_order).series()
    return span.as_ordinary() if require_ordinary else span


def _constructed_terms(k, a, d, s, flavor, x_order, trunc_order):
    """The _sum_terms terms of constructed_gf."""
    if a < 0:
        raise DomainError("constructed_gf needs a >= 0")
    return _span_terms(k, d, s, a, flavor, x_order, trunc_order, False, 0, 0)


def enumerated_gf(k, a, d, s, flavor, x_order, trunc_order) -> BiSeries:
    """Generating function built directly from the counter tables.

    Only the parts rows 0..min(x_order, trunc_order) are read, so only those
    are asked for; rows past trunc_order are zero (m parts weigh at least m).
    """
    parts = min(x_order, trunc_order)
    table = count_table(CountParams(k, a, d, s, flavor), trunc_order, parts)
    rows = [table[m][: trunc_order + 1] for m in range(parts + 1)]
    return BiSeries(rows, x_order, trunc_order)


# ---------------------------------------------------------------------------
# the functional-equation route
# ---------------------------------------------------------------------------

_recurrence_cache: dict = {}


def _recurrence_tables(k, d, flavor, x_order, trunc_order):
    """Fill every (s, a) coefficient table from the functional equation.

    values[s][a][m][n] with the base rows f(s, 0, *, *) = 0 and
    f(s, a, 0, n) = [n == 0], filled upward in (m, n, a); lower indices
    below zero contribute nothing (their classes are provably empty).
    """
    key = (k, d, flavor, x_order, trunc_order)
    got = _recurrence_cache.get(key)
    if got is not None:
        return got
    over = flavor == OVER
    X, N = x_order, trunc_order
    values = [
        [[[0] * (N + 1) for _ in range(X + 1)] for _ in range(k + 1)] for _ in range(d)
    ]
    for s in range(d):
        for a in range(1, k + 1):
            values[s][a][0][0] = 1
    for m in range(1, X + 1):
        for n in range(N + 1):
            for a in range(1, k + 1):
                for s in range(d):
                    acc = values[(s + 1) % d][a - 1][m][n]
                    c1 = k - a + 1 - s
                    m1, n1 = m - a + 1, n - m
                    if c1 >= 1 and 0 <= m1 <= X and 0 <= n1 <= N:
                        acc += values[0][c1][m1][n1]
                    if over:
                        c2 = k - a - s
                        m2 = m - a
                        if c2 >= 1 and 0 <= m2 <= X and 0 <= n1 <= N:
                            acc += values[0][c2][m2][n1]
                    values[s][a][m][n] = acc
    _recurrence_cache[key] = values
    return values


def recurrence_gf(k, a, d, s, flavor, x_order, trunc_order) -> BiSeries:
    """Generating function determined by the functional equation alone."""
    if a == 0:
        return BiSeries.zero(x_order, trunc_order)
    if not 1 <= a <= k:
        raise DomainError("recurrence route needs 0 <= a <= k")
    values = _recurrence_tables(k, d, flavor, x_order, trunc_order)
    return BiSeries(values[s][a], x_order, trunc_order)


# ---------------------------------------------------------------------------
# functional-equation checks
# ---------------------------------------------------------------------------


@dataclass
class DisplayCheck:
    """Outcome of one recurrence-display instance."""

    display: str
    s: int
    a: int
    n: int
    ok: bool
    mismatch: Optional[tuple] = None


@dataclass
class SummandSweep:
    """Outcome of sweeping all summand recurrence displays."""

    k: int
    d: int
    flavor: str
    n_max: int
    x_order: int
    trunc_order: int
    failures: list = field(default_factory=list)
    suspect_printed_ok: bool = True
    suspect_corrected_ok: bool = True
    instances: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.suspect_corrected_ok


def needed_trunc_order(k: int, d: int, n_max: int) -> int:
    """Truncation that keeps every display instance non-degenerate at n_max."""
    return (2 * k + 2 - d) * n_max * (n_max + 1) // 2 + (k + d) * (n_max + 2) + 12


def _side_terms(k, d, flavor, parts, x_order, trunc_order):
    """The _sum_terms terms of (kind, s, n, coeff, mono_x, mono_q, at_xq)
    summand parts, each summand built with enough head room."""
    return [
        (
            _summand_term(kind, k, d, s, n, flavor, x_order, trunc_order, mono_q),
            coeff,
            mono_x,
            mono_q,
            at_xq,
        )
        for kind, s, n, coeff, mono_x, mono_q, at_xq in parts
    ]


def verify_summand_recurrences(
    k: int,
    d: int,
    flavor: str,
    n_max: int,
    x_order: int,
    trunc_order: Optional[int] = None,
) -> SummandSweep:
    """Check every summand recurrence display over s, a <= k, n <= n_max.

    The displays relate alpha[s]_n and alpha[s+1]_n (resp. beta) to the
    0-superscript family at argument xq; the wrap-around instances use
    s = d-1 with the exponents k-a+2-d and k-a+1-d.  Exponents of the
    (x q^(n+1)) monomials may be negative; both sides are assembled with
    combined prefactor monomials, whose x-part is k-s or k+1-d and hence
    never negative.  The final display is checked in its printed form
    ((x q^(-n))^(k-a+1-d) in the second term) and in the corrected form
    ((q^(-n))^(k-a+1-d)); the sweep records which variant holds.
    """
    N = trunc_order if trunc_order is not None else needed_trunc_order(k, d, n_max)
    X = x_order
    over = flavor == OVER
    sweep = SummandSweep(k, d, flavor, n_max, X, N)

    # summand terms (kind, s, n, coeff, mono_x, mono_q, at_xq) of _build_side
    def al(s, n, mono_x, mono_q, coeff=1):
        return ("alpha", s, n, coeff, mono_x, mono_q, False)

    def al_xq(s, n, mono_x, mono_q):
        return ("alpha", s, n, 1, mono_x, mono_q, True)

    def be(s, n, mono_x, mono_q, coeff=1):
        return ("beta", s, n, coeff, mono_x, mono_q, False)

    def be_xq(s, n, mono_x, mono_q):
        return ("beta", s, n, 1, mono_x, mono_q, True)

    def sides(*parts):
        return _sums([_side_terms(k, d, flavor, p, X, N) for p in parts], X, N)

    def record(display, s, a, n, lhs_parts, rhs_parts):
        sweep.instances += 1
        diff = _first_difference(*sides(lhs_parts, rhs_parts))
        ok = diff is None
        if not ok:
            sweep.failures.append(DisplayCheck(display, s, a, n, False, diff))
        return ok

    for n in range(n_max + 1):
        for a in range(1, k + 1):
            for s in range(d - 1):
                e1 = k - a + 1 - s
                e2 = k - a - s
                # alpha display: alpha[s]_n q^(-na) - alpha[s+1]_n q^(-n(a-1))
                #   = (xq)^(a-1) beta[0]_(n-1)(xq) (x q^(n+1))^e1  [+ over term]
                rhs = [be_xq(0, n - 1, (a - 1) + e1, (a - 1) + (n + 1) * e1)]
                if over:
                    rhs.append(be_xq(0, n - 1, a + e2, a + (n + 1) * e2))
                record(
                    "alpha-step",
                    s,
                    a,
                    n,
                    [al(s, n, 0, -n * a), al(s + 1, n, 0, -n * (a - 1), -1)],
                    rhs,
                )
                # beta display: beta[s]_n (xq^(n+1))^a - beta[s+1]_n (xq^(n+1))^(a-1)
                #   = (xq)^(a-1) alpha[0]_n(xq) (q^(-n))^e1  [+ over term]
                rhs = [al_xq(0, n, a - 1, (a - 1) - n * e1)]
                if over:
                    rhs.append(al_xq(0, n, a, a - n * e2))
                record(
                    "beta-step",
                    s,
                    a,
                    n,
                    [be(s, n, a, (n + 1) * a), be(s + 1, n, a - 1, (n + 1) * (a - 1), -1)],
                    rhs,
                )
            # wrap-around instances, s = d-1
            w1 = k - a + 2 - d
            w2 = k - a + 1 - d
            rhs = [be_xq(0, n - 1, (a - 1) + w1, (a - 1) + (n + 1) * w1)]
            if over:
                rhs.append(be_xq(0, n - 1, a + w2, a + (n + 1) * w2))
            record(
                "alpha-wrap",
                d - 1,
                a,
                n,
                [al(d - 1, n, 0, -n * a), al(0, n, 0, -n * (a - 1), -1)],
                rhs,
            )
            lhs = [be(d - 1, n, a, (n + 1) * a), be(0, n, a - 1, (n + 1) * (a - 1), -1)]
            if not over:
                record("beta-wrap", d - 1, a, n, lhs, [al_xq(0, n, a - 1, (a - 1) - n * w1)])
            else:
                base = [al_xq(0, n, a - 1, (a - 1) - n * w1)]
                printed = base + [al_xq(0, n, a + w2, a - n * w2)]
                corrected = base + [al_xq(0, n, a, a - n * w2)]
                lhs_sum, printed_sum, corrected_sum = sides(lhs, printed, corrected)
                printed_ok = _first_difference(lhs_sum, printed_sum) is None
                corrected_diff = _first_difference(lhs_sum, corrected_sum)
                sweep.instances += 1
                sweep.suspect_printed_ok = sweep.suspect_printed_ok and printed_ok
                if corrected_diff is not None:
                    sweep.suspect_corrected_ok = False
                    sweep.failures.append(
                        DisplayCheck("beta-wrap-over", d - 1, a, n, False, corrected_diff)
                    )
    return sweep


def verify_gf_functional_equation(
    k: int, a: int, d: int, s: int, flavor: str, x_order: int, trunc_order: int
):
    """Check the generating-function functional equation at one tuple.

    G[s]_(k,a) - G[(s+1) mod d]_(k,a-1) = (xq)^(a-1) G[0]_(k, k-a+1-s)(xq)
    (+ (xq)^a G[0]_(k, k-a-s)(xq) for overpartitions).  Both sides are
    assembled summand-by-summand with folded monomials, so lower indices
    below zero never materialize negative x-powers; the check runs on every
    valid tuple.  Returns None or the first differing coefficient.
    """
    X, N = x_order, trunc_order
    lhs = _span_terms(k, d, s, a, flavor, X, N, False, 0, 0)
    lhs += _span_terms(k, d, (s + 1) % d, a - 1, flavor, X, N, False, 0, 0, coeff=-1)
    rhs = _span_terms(k, d, 0, k - a + 1 - s, flavor, X, N, True, a - 1, a - 1)
    if flavor == OVER:
        rhs += _span_terms(k, d, 0, k - a - s, flavor, X, N, True, a, a)
    return _first_difference(*_sums([lhs, rhs], X, N))


# ---------------------------------------------------------------------------
# identification (constructed vs enumerated) and its applicability
# ---------------------------------------------------------------------------


def identification_conditions(k, a, d, s, flavor) -> tuple[bool, str]:
    """The stated conditions under which the constructed series is claimed
    to equal the enumerative generating function."""
    if flavor == REGULAR:
        if (2 * (a + s)) % d != 0:
            return False, f"2(a+s) = {2 * (a + s)} not divisible by d = {d}"
        if (2 * (k + 1)) % d != 0:
            return False, f"2(k+1) = {2 * (k + 1)} not divisible by d = {d}"
        return True, ""
    if d not in (1, 2):
        return False, f"over flavor needs d in {{1, 2}}, got d = {d}"
    return True, ""


def identification_grounded(k, a, d, s, flavor) -> bool:
    """True when the determining chain of functional equations never
    references a lower index below zero.  Chains step (a, s) -> (a-1, s+1)
    with the index sum non-increasing, so only the initial sum matters.
    The over flavor also uses the k-a-s index, hence the tighter bound;
    tuples failing this are exactly where the identification breaks.

    For a regular tuple, "identified and not grounded" holds exactly when
    d | 2(k+1) and 2(a+s) = 2k+2+d.  Indeed t = a+s-k-1 then satisfies
    0 < t <= d-2 (a <= k, s <= d-1) and d | 2t, so 2t = d; conversely
    2(a+s) = 2k+2+d gives d | 2(a+s) and a+s > k+1.  So the regular tuples
    that fail this are the ones the identities' verbatim side condition
    2(a+s) != 2k+2+d excludes.
    """
    if flavor == REGULAR:
        return a + s <= k + 1
    return a + s <= k


# ---------------------------------------------------------------------------
# x = 1 specialization versus the triple products
# ---------------------------------------------------------------------------


def x_one_product_forms(k, a, d, s, flavor, trunc_order) -> list[tuple[str, BiSeries]]:
    """Product combinations equal to the x = 1 specialization.

    Returns every well-formed displayed form plus the bilateral-theta
    combination (which is defined for all parameters and is what the
    displayed forms evaluate to under the triple product identity).  Each
    form is a univariate (x_order 0) BiSeries so that parameter tuples whose
    specialization is a Laurent series are representable.

    Each form is (q^e1 - q^e2) P1 + (1 - q^(d-s)) P2 over (1 - q^d)(q; q)_inf,
    times (-q; q)_inf over, with P1, P2 triple products (displayed forms) or
    theta sums.  It is computed on packed rows (the _packing row kernel) on
    one window [off, N] of L slots shared by every form: each P row is
    packed once, a numerator is four shift-adds, divide_unit divides it by
    1 - q^d, and one multiply by the packed p(n) (p-bar(n) over) row
    supplies the rest.  Every factor is a power series with constant term 1,
    so the result is exact on the whole window.  The slot width comes from a
    bound: a numerator is at most 2 (|P1| + |P2|), the division multiplies
    that by (L-1)//d + 1, and the product by L times the largest count.
    """
    N = trunc_order
    M = modulus(k, d, flavor)

    # P rows as (q-offset, coefficients)
    def tp(c: int) -> Optional[tuple]:
        if c == 0:
            return 0, ()
        if 1 <= c <= M:
            return 0, triple_product(c, M, N).coeffs
        return None

    def theta(c: int) -> tuple:
        t = theta_laurent(c, M, N)
        return t.q_offset, t.rows[0]

    # (label, e1, e2, P1, P2)
    specs = []
    second = tp(a + s)
    if a + s - d >= 0 and second is not None:
        specs.append(("shifted-argument form", d - s, d, tp(a + s - d), second))
    if d - a - s >= 0 and second is not None:
        specs.append(("reflected-argument form", a + s, a, tp(d - a - s), second))
    # bilateral-theta combination, valid for every parameter tuple
    specs.append(("bilateral-theta form", d - s, d, theta(a + s - d), theta(a + s)))

    rows = {id(p): p for spec in specs for p in spec[3:]}  # second is shared
    off = min(q_off for q_off, _ in rows.values())
    L = N - off + 1
    counts = partition_counts(flavor, L - 1)[:L]
    top = {i: max(map(abs, row), default=0) for i, (_, row) in rows.items()}
    numerator = max(2 * (top[id(p1)] + top[id(p2)]) for *_, p1, p2 in specs)
    B = _packing.slot_width(numerator * ((L - 1) // d + 1) * L * max(counts))
    packed = {i: _packing.pack([row], L, B) << (q - off) * B for i, (q, row) in rows.items()}
    quotient = _packing.pack([counts], L, B)
    mask = (1 << (L * B)) - 1
    forms: list[tuple[str, BiSeries]] = []
    for label, e1, e2, p1, p2 in specs:
        u, v = packed[id(p1)], packed[id(p2)]
        num = ((u << (e1 * B)) - (u << (e2 * B)) + v - (v << ((d - s) * B))) & mask
        value = _packing.divide_unit(num, d, L, B) * quotient & mask
        start = min(p1[0], p2[0])
        row = _packing.read_slots(value, L, B)[start - off :]
        forms.append((label, BiSeries([row], 0, N, start)))
    return forms


def x_one_exact_bound(k, a, d, s, flavor, x_order, trunc_order) -> int:
    """Largest q-degree at which eval_x_one of the truncated construction is
    provably complete against the true x = 1 specialization.

    Identified, grounded tuples: the discarded x-degrees carry enumerative
    coefficients whose least weight at x_order+1 parts is bounded below by a
    window-packing DP.  Otherwise: every summand monomial x^m q^j satisfies
    j >= m - deficit, with the deficit computed from the explicit exponents.
    """
    X, N = x_order, trunc_order
    idc, _ = identification_conditions(k, a, d, s, flavor)
    if idc and identification_grounded(k, a, d, s, flavor):
        return min(N - X, min_admissible_weight(k, a, flavor, X + 1, N - X + 1) - 1)
    # t_alpha(n) and t_beta(n) are eventually increasing in n; scan through
    # the last index at which either difference can still be negative
    scan_top = max(k + 1 - d + s + a, k + 1 - s - a, 1) // modulus(k, d, flavor) + 2
    deficit = 0
    for n in range(1, scan_top + 1):
        base = _quadratic_weight(k, d, flavor, n) - (k + 1 - d) * n
        deficit = max(deficit, n * (s + a) - base, -(base + n * (a - d + s)))
    return min(N - X, X - deficit)


@dataclass
class XOneCheck:
    """Comparison of the x = 1 specialization against each product form."""

    bound: int
    identified: bool
    ordinary: bool
    results: list  # (label, ok, mismatch)

    @property
    def ok(self) -> bool:
        return all(r[1] for r in self.results)


def _x_one_row(k, a, d, s, flavor, x_order, trunc_order) -> tuple[BiSeries, bool]:
    """The x = 1 specialization of constructed_gf(..., require_ordinary=False)
    (sum_x_rows of it) and whether that series is ordinary.

    The summand terms are summed packed (_sum_terms) at the width of
    x_order + 1 times their bound, so that adding the x-rows of the sum as
    ints gives the packed x = 1 row.  The series is ordinary when every
    row's slots below q^0 are zero bits.
    """
    X, N = x_order, trunc_order
    terms = _constructed_terms(k, a, d, s, flavor, X, N)
    bound = (X + 1) * sum(f.bound for f, *_ in terms)
    span = _sum_terms(terms, X, N, _packing.slot_width(bound))
    B, off = span.bits, span.q_offset
    below = (1 << (-off * B)) - 1
    ordinary = not any(r & below for r in span.rows)
    n_slots = N - off + 1
    row = sum(span.rows) & ((1 << (n_slots * B)) - 1)
    return BiSeries([_packing.read_slots(row, n_slots, B)], 0, N, off), ordinary


def x_one_check(k, a, d, s, flavor, x_order, trunc_order) -> XOneCheck:
    """Evaluate the construction at x = 1 and compare with every form.

    The comparison window is capped at the tuple's provable exactness bound,
    and both sides are built through q^bound only (q^0 if it is negative):
    nothing past it is compared.  The specialization itself is formed in
    Laurent space so that every parameter tuple (ordinary or not) is
    checkable; the terms a shallower sum leaves out start above q^0, so its
    negative powers, and hence the ordinary flag, are those of the full sum.
    """
    bound = x_one_exact_bound(k, a, d, s, flavor, x_order, trunc_order)
    top = max(bound, 0)
    ev, ordinary = _x_one_row(k, a, d, s, flavor, x_order, top)
    idc, _ = identification_conditions(k, a, d, s, flavor)
    grounded = identification_grounded(k, a, d, s, flavor)
    results = []
    for label, form in x_one_product_forms(k, a, d, s, flavor, top):
        if bound < 0:
            results.append((label, False, ("bound", bound, None, None)))
            continue
        diff = ev.first_difference(form)
        results.append((label, diff is None, diff))
    return XOneCheck(bound, idc and grounded, ordinary, results)


def bridging_identity_holds(d: int, s: int, a: int) -> bool:
    """(q^(d-s) - q^d)(1 - q^(a+s-d)) = (q^(a+s) - q^a)(1 - q^(d-s-a)) as
    Laurent polynomials in q."""

    def poly(*terms) -> dict:
        # exponents may coincide (e.g. s = 0), so accumulate
        out: dict[int, int] = {}
        for e, c in terms:
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    def mul(p1: dict, p2: dict) -> dict:
        out: dict[int, int] = {}
        for e1, c1 in p1.items():
            for e2, c2 in p2.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    lhs = mul(poly((d - s, 1), (d, -1)), poly((0, 1), (a + s - d, -1)))
    rhs = mul(poly((a + s, 1), (a, -1)), poly((0, 1), (d - s - a, -1)))
    return lhs == rhs
