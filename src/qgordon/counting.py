"""Enumeration of partition and overpartition counters.

Two independent routes are provided for the multiplicity-side counters:

* a frequency-window dynamic program over part values, whose states carry
  their counts as one packed integer each, so that a transition is a single
  bigint shift-and-add.  It runs backward, from the largest value down to 1
  (the transfer-matrix method), so that a and s enter only at its last step:
  one build answers every (a, s) of a (k, d, flavor) and fills the cache
  entries of all of them.  It comes in two shapes over the same states and
  transitions: the (parts, weight) table behind count_table / count_mult,
  and a weight-only vector behind count_mult_totals / count_mult_total,
  which the identities check reads and which needs no per-row masks.  The
  table's masks are shared between builds under a fixed byte budget.  The
  slot width of both is derived, not assumed: every count at weight
  n <= N is at most p(N) (p-bar(N) for overpartitions), rounded up to
  whole bytes, and the slots are read with _packing.read_slots;
* a brute-force enumerator that generates every (over)partition and applies
  the membership predicate directly - the slow cross-check oracle.

The congruence-side counters are one coefficient row each (_parts_row),
multiplied in place by 1 + q^v for each part v that may appear once
(overlined) and divided by 1 - q^v for each part that may repeat; the
product-defined exceptional case seeds the row with the triple product.  No
series is multiplied or inverted.  The same row over every part, the p(n) or
p-bar(n) counts (partition_counts), is held at its deepest build: it gives
the bound behind the DP slot width and is the (q; q)_inf quotient of the
x = 1 product forms (gseries).

All functions are pure; the memo tables are module-level dicts whose fills are
idempotent, and the mask budget is kept under a lock, so concurrent use is
safe.
"""

from __future__ import annotations

import csv
import functools
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from ._packing import read_slots
from .series import PowerSeries, DomainError, div_binomial, mul_binomial, triple_product

REGULAR = "regular"
OVER = "over"


def modulus(k: int, d: int, flavor: str) -> int:
    """Modulus of the product side: 2k+2-d (regular) or 2k+1-d (over)."""
    return 2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d


@dataclass(frozen=True)
class CountParams:
    """Parameter tuple addressing one counter family.

    k >= 2, 1 <= d <= k, 0 <= s <= d - 1, 0 <= a <= k.  a = 0 is the
    degenerate boundary (the counters are identically zero there: no
    partition has a negative number of 1s).
    """

    k: int
    a: int
    d: int
    s: int
    flavor: str = REGULAR

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("k must be at least 2")
        if not 1 <= self.d <= self.k:
            raise DomainError("d must satisfy 1 <= d <= k")
        if not 0 <= self.s <= self.d - 1:
            raise DomainError("s must satisfy 0 <= s <= d-1")
        if not 0 <= self.a <= self.k:
            raise DomainError("a must satisfy 0 <= a <= k")
        if self.flavor not in (REGULAR, OVER):
            raise DomainError(f"unknown flavor {self.flavor!r}")

    @property
    def is_over(self) -> bool:
        return self.flavor == OVER


@dataclass(frozen=True)
class FreqSolution:
    """A partition or overpartition encoded by part frequencies.

    freqs[i-1] is the number of non-overlined parts i; over_flags[i-1] is 0
    or 1 for the overlined copy.  A regular partition has over_flags all 0.
    """

    freqs: tuple[int, ...]
    over_flags: tuple[int, ...]

    def __post_init__(self):
        if len(self.freqs) != len(self.over_flags):
            raise ValueError("freqs and over_flags must have the same length")
        if any(f < 0 for f in self.freqs):
            raise ValueError("frequencies must be non-negative")
        if any(b not in (0, 1) for b in self.over_flags):
            raise ValueError("overline flags must be 0 or 1")

    @classmethod
    def from_parts(cls, parts, overlined=()) -> "FreqSolution":
        """Build from a list of part values plus the values that are overlined."""
        top = max(list(parts) + list(overlined) + [0])
        f = [0] * top
        fbar = [0] * top
        for v in parts:
            f[v - 1] += 1
        for v in overlined:
            if fbar[v - 1]:
                raise ValueError(f"part {v} overlined twice")
            fbar[v - 1] = 1
        return cls(tuple(f), tuple(fbar))

    @property
    def max_part(self) -> int:
        return len(self.freqs)

    @property
    def weight(self) -> int:
        return sum(
            i * (f + b) for i, (f, b) in enumerate(zip(self.freqs, self.over_flags), 1)
        )

    @property
    def num_parts(self) -> int:
        return sum(self.freqs) + sum(self.over_flags)

    def freq(self, i: int) -> int:
        return self.freqs[i - 1] if 1 <= i <= len(self.freqs) else 0

    def over_flag(self, i: int) -> int:
        return self.over_flags[i - 1] if 1 <= i <= len(self.over_flags) else 0

    def rho(self, i: int) -> int:
        """Signed count of overlined parts <= i: sum of (-1)^j over_flags[j]."""
        if i < 1:
            raise DomainError("rho is defined for i >= 1")
        return sum(
            (-1 if j % 2 else 1) * b for j, b in enumerate(self.over_flags[:i], 1)
        )

    def v_stat(self, i: int) -> int:
        """Unsigned count of overlined parts <= i."""
        if i < 1:
            raise DomainError("v_stat is defined for i >= 1")
        return sum(self.over_flags[:i])

    def is_regular(self) -> bool:
        return not any(self.over_flags)


def satisfies_mult_conditions(sol: FreqSolution, cp: CountParams) -> bool:
    """Membership predicate for the multiplicity-side counters.

    True iff (i) the non-overlined 1s number fewer than a, (ii) every window
    f_i + fbar_i + f_{i+1} stays below k, and (iii) whenever a window equals
    k - delta with 1 <= delta <= d-1, the residue
    (a + s - 1 - f_odd - rho(i)) mod d lies in {0, ..., delta-1}, where f_odd
    is f_i + fbar_i for odd i and f_{i+1} for even i.  For the regular flavor
    rho vanishes and there are no overlines.
    """
    if not cp.is_over and not sol.is_regular():
        raise DomainError("regular-flavor membership asked about an overpartition")
    k, a, d, s = cp.k, cp.a, cp.d, cp.s
    if sol.freq(1) >= a:
        return False
    rho = 0
    for i in range(1, sol.max_part + 1):
        rho += (-1 if i % 2 else 1) * sol.over_flag(i)
        window = sol.freq(i) + sol.over_flag(i) + sol.freq(i + 1)
        if window >= k:
            return False
        delta = k - window
        if 1 <= delta <= d - 1:
            f_odd = sol.freq(i) + sol.over_flag(i) if i % 2 else sol.freq(i + 1)
            if (a + s - 1 - f_odd - rho) % d > delta - 1:
                return False
    return True


# ---------------------------------------------------------------------------
# fast route: frequency-window DP over packed count vectors
# ---------------------------------------------------------------------------

_width_cache: dict[str, list[int]] = {}
_mask_cache: dict[tuple[int, int, int, int], int] = {}
_mask_bytes = 0  # total _mask_size of the masks in _mask_cache; both change under _mask_lock
_mask_lock = threading.Lock()
_MASK_BUDGET = 32 << 20  # bytes of masks that _mask_cache may hold
_table_cache: dict[tuple[int, int, int, int, str], tuple[int, list[list[int]]]] = {}
_totals_cache: dict[tuple[int, int, int, int, str], list[int]] = {}


def _parts_row(plain, lined, n_max: int, row: Optional[list[int]] = None) -> list[int]:
    """Coefficients through q^n_max of row (default 1) times
    prod_(v in lined) (1 + q^v) / prod_(v in plain) (1 - q^v): partitions
    into any parts from plain plus distinct parts from lined.  The row is
    multiplied and divided in place, one factor at a time."""
    rows = [[1] + [0] * n_max if row is None else row]
    for v in lined:
        mul_binomial(rows, 0, v, 1)
    for v in plain:
        div_binomial(rows, 0, v)
    return rows[0]


def partition_counts(flavor: str, n_max: int) -> list[int]:
    """p(0), p(1), ... (p-bar for overpartitions, the coefficients of
    prod (1+q^v)/(1-q^v)) through n_max or further: the coefficients of
    (-q; q)_inf^[over] / (q; q)_inf.  _width_cache holds the deepest row
    built; a deeper request rebuilds it and replaces it."""
    held = _width_cache.get(flavor)
    if held is None or len(held) <= n_max:
        every = range(1, n_max + 1)
        held = _width_cache[flavor] = _parts_row(every, every if flavor == OVER else (), n_max)
    return held


def _slot_bits(flavor: str, n_max: int) -> int:
    """Slot width (bits, multiple of 8) that holds every DP count up to n_max.

    Each slot of a DP state counts distinct partial (over)partitions of one
    weight n <= n_max, and the states summed into one slot never count the
    same one twice.  So every slot, partial or final, is at most p(n_max)
    (p-bar(n_max) for overpartitions), and a slot this wide never carries
    into its neighbour.
    """
    return (max(partition_counts(flavor, n_max)[: n_max + 1]).bit_length() + 7) & ~7


def _weight_mask(stride: int, limit: int, rows: int, bits: int) -> int:
    """All-ones slots (m, n) with m < rows and n <= limit, rows of stride
    slots, built from one repeated byte pattern (bits is a multiple of 8).

    Masks are shared between builds through _mask_cache, which holds at most
    _MASK_BUDGET bytes of them: a new mask evicts the oldest ones until it
    fits, and one larger than the whole budget is not held at all."""
    global _mask_bytes
    key = (stride, limit, rows, bits)
    got = _mask_cache.get(key)
    if got is None:
        nbytes = bits // 8
        row = b"\xff" * (nbytes * (limit + 1)) + bytes(nbytes * (stride - limit - 1))
        got = int.from_bytes(row * rows, "little")
        size = _mask_size(got)
        with _mask_lock:
            if size <= _MASK_BUDGET and key not in _mask_cache:
                while _mask_bytes + size > _MASK_BUDGET:
                    _mask_bytes -= _mask_size(_mask_cache.pop(next(iter(_mask_cache))))
                _mask_cache[key] = got
                _mask_bytes += size
    return got


def _mask_size(mask: int) -> int:
    """Bytes that a mask is counted at against _MASK_BUDGET."""
    return (mask.bit_length() + 7) // 8


def _window_dp(k: int, d: int, flavor: str, n_max: int, move) -> dict[tuple[int, int], int]:
    """Run the frequency-window DP of (k, d, flavor) backward over the part
    values, and return the packed count vector of every (a, s), 1 <= a <= k,
    0 <= s <= d - 1 (at a = 0 every count is 0).

    The state before value v is (prev, r): prev = f_(v-1) + fbar_(v-1) and
    r = (a + s - 1 - rho(v-1)) mod d.  In these terms the window test at i is
    (r - f_odd) mod d <= delta - 1, free of a and s, so B_v(prev, r), the
    vector of every admissible completion by the values v, v+1, ..., is shared
    by the whole group; a and s enter only at v = 1, through f_1 < a and the
    start residue r = a + s - 1.  move(packed, p, w) returns the vector after
    p more parts of total weight w (0 < w <= n_max), with whatever falls past
    the bounds dropped; the completions of (p, r') after value v are moved
    once per v and shared by every state that reaches them.
    """
    lined = (0, 1) if flavor == OVER else (0,)

    def window_ok(i: int, prev: int, g: int, r: int) -> bool:
        # window at value i is prev + g (prev = f_i + fbar_i, g = f_(i+1))
        delta = k - prev - g
        if 1 <= delta <= d - 1:
            return (r - (prev if i % 2 else g)) % d <= delta - 1
        return delta > 0

    # allowed[i % 2][prev][r]: every g = f_(i+1) for which the window at i holds
    allowed = [
        [[[g for g in range(k - prev) if window_ok(i, prev, g, r)] for r in range(d)]
         for prev in range(k)]
        for i in (0, 1)
    ]

    def entered(later: dict[tuple[int, int], int], v: int) -> dict[tuple[int, int], int]:
        # [g, r]: the completions from v on with f_v = g and the state before
        # v at residue r, summed over fbar_v; rho(v) = rho(v-1) + sign * fbar_v
        sign = 1 if v % 2 == 0 else -1
        moved = {}
        for (p, r), packed in later.items():
            w = v * p
            if w <= n_max:
                moved[p, r] = move(packed, p, w) if w else packed
        sums = {}
        for g in range(k):
            for r in range(d):
                total = sum(moved.get((g + gbar, (r - sign * gbar) % d), 0) for gbar in lined)
                if total:
                    sums[g, r] = total
        return sums

    states = {
        (prev, r): 1 for prev in range(k) for r in range(d) if window_ok(n_max, prev, 0, r)
    }
    for v in range(n_max, 1, -1):
        sums = entered(states, v)
        states = {}
        for prev in range(k):
            for r in range(d):
                total = sum(sums.get((g, r), 0) for g in allowed[(v - 1) % 2][prev][r])
                if total:
                    states[prev, r] = total
    sums = entered(states, 1)
    return {
        (a, s): sum(sums.get((g, (a + s - 1) % d), 0) for g in range(a))
        for a in range(1, k + 1)
        for s in range(d)
    }


def _group_keys(k: int, d: int, flavor: str) -> list[tuple[int, int, int, int, str]]:
    """Cache keys of every (a, s) that one build of (k, d, flavor) answers."""
    return [(k, a, d, s, flavor) for a in range(1, k + 1) for s in range(d)]


def _compute_table(
    k: int, d: int, flavor: str, n_max: int, parts: int
) -> dict[tuple[int, int], list[list[int]]]:
    """Tables of counts by number of parts 0..parts and weight 0..n_max, one
    for every (a, s) of the group (k, d, flavor).

    Slot (m, n) of the packed vector sits at m * (n_max + 1) + n.  A move of
    p parts of weight w keeps the slots with n + w <= n_max and m + p <= parts;
    that is no more than n_max - w + 1 rows, since m parts weigh at least m.
    """
    stride = n_max + 1
    bits = _slot_bits(flavor, n_max)

    def move(packed: int, p: int, w: int) -> int:
        limit = n_max - w
        mask = _weight_mask(stride, limit, min(parts - p, limit) + 1, bits)
        return (packed & mask) << (bits * (p * stride + w))

    tables = {}
    for start, packed in _window_dp(k, d, flavor, n_max, move).items():
        flat = read_slots(packed, (parts + 1) * stride, bits, signed=False)
        tables[start] = [flat[m * stride : (m + 1) * stride] for m in range(parts + 1)]
    return tables


def _compute_totals(k: int, d: int, flavor: str, n_max: int) -> dict[tuple[int, int], list[int]]:
    """Counts by weight alone, up to n_max, one list for every (a, s) of the
    group (k, d, flavor): one packed slot per weight."""
    bits = _slot_bits(flavor, n_max)
    window = (1 << (bits * (n_max + 1))) - 1

    def move(packed: int, p: int, w: int) -> int:
        return (packed << (bits * w)) & window

    return {
        start: read_slots(packed, n_max + 1, bits, signed=False)
        for start, packed in _window_dp(k, d, flavor, n_max, move).items()
    }


def count_table(cp: CountParams, n_max: int, parts: Optional[int] = None) -> list[list[int]]:
    """Cached (parts, weight) count table; entry [m][n] counts solutions.

    The parts bound: rows 0..parts (default n_max, every row that can be
    nonzero) and weights 0..n_max are exact.  Any held table with at least
    as many rows and weights serves the request, so the table returned may
    be larger.  A miss builds the tables of every (a, s) of the group
    (k, d, flavor) at once, at the largest bounds requested or held in that
    group, so that no held table is replaced by a smaller one.
    """
    parts = n_max if parts is None else min(parts, n_max)
    if cp.a == 0:
        return [[0] * (n_max + 1) for _ in range(parts + 1)]
    key = (cp.k, cp.a, cp.d, cp.s, cp.flavor)
    cached = _table_cache.get(key)
    if cached is not None and cached[0] >= n_max and len(cached[1]) > parts:
        return cached[1]
    for held_n, table in filter(None, map(_table_cache.get, _group_keys(cp.k, cp.d, cp.flavor))):
        n_max, parts = max(n_max, held_n), max(parts, len(table) - 1)
    for (a, s), table in _compute_table(cp.k, cp.d, cp.flavor, n_max, parts).items():
        _table_cache[cp.k, a, cp.d, s, cp.flavor] = (n_max, table)
    return _table_cache[key][1]


def count_mult(cp: CountParams, m: int, n: int) -> int:
    """Number of admissible solutions of weight n with exactly m parts."""
    if m < 0 or n < 0 or m > n:
        return 0
    return count_table(cp, n)[m][n]


def count_mult_totals(cp: CountParams, n_max: int) -> list[int]:
    """Numbers of admissible solutions of weight 0..n_max (any number of parts).

    Built by the weight-only DP, without the parts axis, and cached per
    tuple; a request no larger than the held list is served from it.  A miss
    builds the lists of every (a, s) of the group (k, d, flavor) at once,
    through the largest weight requested or held in that group.
    """
    if cp.a == 0:
        return [0] * (n_max + 1)
    key = (cp.k, cp.a, cp.d, cp.s, cp.flavor)
    held = _totals_cache.get(key)
    if held is None or len(held) <= n_max:
        group = filter(None, map(_totals_cache.get, _group_keys(cp.k, cp.d, cp.flavor)))
        top = max([n_max] + [len(totals) - 1 for totals in group])
        for (a, s), totals in _compute_totals(cp.k, cp.d, cp.flavor, top).items():
            _totals_cache[cp.k, a, cp.d, s, cp.flavor] = totals
        held = _totals_cache[key]
    return held[: n_max + 1]


def count_mult_total(cp: CountParams, n: int) -> int:
    """Number of admissible solutions of weight n (any number of parts)."""
    if n < 0:
        return 0
    return count_mult_totals(cp, n)[n]


# ---------------------------------------------------------------------------
# slow route: brute-force enumeration against the predicate
# ---------------------------------------------------------------------------


def iter_freq_solutions(n: int, flavor: str = REGULAR) -> Iterator[FreqSolution]:
    """Every partition (or overpartition) of n, as frequency encodings."""
    over = flavor == OVER

    def rec(remaining: int, v: int, f: list[int], fbar: list[int]):
        if remaining == 0:
            top = max([i + 1 for i, x in enumerate(f) if x]
                      + [i + 1 for i, x in enumerate(fbar) if x] + [0])
            yield FreqSolution(tuple(f[:top]), tuple(fbar[:top]))
            return
        if v > remaining:
            return
        for fb in (0, 1) if over else (0,):
            start = remaining - fb * v
            if start < 0:
                continue
            for fv in range(start // v + 1):
                f[v - 1], fbar[v - 1] = fv, fb
                used = v * (fv + fb)
                yield from rec(remaining - used, v + 1, f, fbar)
                f[v - 1], fbar[v - 1] = 0, 0

    if n < 0:
        return
    if n == 0:
        yield FreqSolution((), ())
        return
    yield from rec(n, 1, [0] * n, [0] * n)


def count_mult_brute(cp: CountParams, m: Optional[int], n: int) -> int:
    """Brute-force oracle for count_mult / count_mult_total."""
    if n < 0:
        return 0
    return sum(
        1
        for sol in iter_freq_solutions(n, cp.flavor)
        if (m is None or sol.num_parts == m) and satisfies_mult_conditions(sol, cp)
    )


# ---------------------------------------------------------------------------
# congruence-side counters
# ---------------------------------------------------------------------------

_cong_cache: dict[tuple[int, int, int, str], tuple[int, PowerSeries, bool]] = {}


def congruence_series(
    k: int, d: int, c: int, flavor: str, trunc_order: int
) -> tuple[PowerSeries, bool]:
    """Generating function of the congruence-side counter with lower index c.

    Regular flavor, modulus M = 2k+2-d: partitions into parts not congruent
    to 0 or +-c mod M, counted by direct enumeration; if 2c = M the counter
    has no combinatorial description and is *defined* as the coefficient of
    the triple product (q^c, q^(M-c), q^M; q^M)_inf / (q; q)_inf.

    Over flavor, modulus 2k+1-d: non-overlined parts avoid 0, +-c mod the
    modulus and overlined parts are free; if 2c equals the modulus, all parts
    avoid multiples of k + (1-d)/2 instead (d must be odd there).

    Returns (series, product_defined).
    """
    n = trunc_order
    M = modulus(k, d, flavor)
    every = range(1, n + 1)
    if 2 * c == M:
        if flavor == REGULAR:
            row = _parts_row(every, (), n, list(triple_product(c, M, n).coeffs))
            return PowerSeries(row, n), True
        if d % 2 == 0:
            raise DomainError(
                "exceptional over case needs k + (1-d)/2 integral, so d must be odd"
            )
        kappa = k + (1 - d) // 2
        allowed = [v for v in every if v % kappa != 0]
        return PowerSeries(_parts_row(allowed, allowed, n), n), False
    r = c % M
    bad = {0, r, (M - r) % M}
    allowed = [v for v in every if v % M not in bad]
    return PowerSeries(_parts_row(allowed, every if flavor == OVER else (), n), n), False


def cached_congruence_series(k: int, d: int, c: int, flavor: str, n: int):
    """congruence_series(k, d, c, flavor, ...) exact through q^n or deeper,
    as (series, product_defined), from _cong_cache.  A miss builds through
    q^max(n, 16) and replaces the held series."""
    key = (k, d, c, flavor)
    cached = _cong_cache.get(key)
    if cached is None or cached[0] < n:
        series, special = congruence_series(k, d, c, flavor, max(n, 16))
        cached = _cong_cache[key] = (series.trunc_order, series, special)
    return cached[1], cached[2]


def count_cong(cp: CountParams, n: int) -> int:
    """Congruence-side counter value at n (flavor-aware)."""
    if n < 0:
        return 0
    return cached_congruence_series(cp.k, cp.d, cp.a, cp.flavor, n)[0].coefficient(n)


# ---------------------------------------------------------------------------
# recurrence verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrenceOutcome:
    """Result of sweeping the counter recurrence over a (parts, weight) box."""

    ok: bool
    first_mismatch: Optional[tuple[int, int, int, int]]  # (m, n, lhs, rhs)
    extension_used: bool  # some referenced lower index fell below 0


def verify_recurrence(cp: CountParams, m_max: int, n_max: int) -> RecurrenceOutcome:
    """Check the defining recurrence of the counters on a (parts, weight) box.

    The counter at (k, a, s) splits by the number of 1s: solutions with fewer
    than a-1 of them biject onto the (a-1, s+1) counter, and stripping a-1 1s
    and lowering every part by one sends the rest onto the lower-index
    counters at (m-a+1, n-m) (plus, for overpartitions, the overlined-1 class
    at (m-a, n-m)).  Superscripts are residues mod d; lower indices below 0
    contribute 0 and set the extension flag.

    Each of the three or four tables is built once, at the largest bound, and
    the two sides are compared a whole m-row at a time.  The reported
    mismatch is the first in the order of the sweep: least n, then least m.
    The extension flag is set when a counter with a negative lower index is
    read at m, n >= 0 no later than the point where the sweep stops.
    """
    k, a, d, s, flavor = cp.k, cp.a, cp.d, cp.s, cp.flavor
    width = n_max + 1

    def table(a2: int, s2: int) -> list:
        if a2 <= 0:
            return []  # the counter vanishes; every row reads as zero
        return count_table(CountParams(k, a2, d, s2 % d, flavor), max(m_max, n_max))

    lhs_table = table(a, s)
    same_table = table(a - 1, s + 1)  # read at (m, n)
    # (table, lower index, shift): read at (m - shift, n - m)
    stripped = [(table(k - a + 1 - s, 0), k - a + 1 - s, a - 1)]
    if cp.is_over:
        stripped.append((table(k - a - s, 0), k - a - s, a))
    mismatch = None
    for m in range(m_max + 1):
        lhs = lhs_table[m][:width] if lhs_table else [0] * width
        rhs = list(same_table[m][:width]) if same_table else [0] * width
        for rows, _, shift in stripped:
            if 0 <= m - shift < len(rows):
                rhs[m:] = [u + v for u, v in zip(rhs[m:], rows[m - shift])]
        if lhs != rhs:
            n = next(n for n, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            if mismatch is None or n < mismatch[1]:
                mismatch = (m, n, lhs[n], rhs[n])
    # the sweep runs n-major and stops at its first mismatch; each
    # negative-index counter is first read at m = n = (its shift, or 0)
    stop = (mismatch[1], mismatch[0]) if mismatch else (n_max, m_max)
    first_reads = [0] if a - 1 < 0 else []
    first_reads += [max(shift, 0) for _, lower, shift in stripped if lower < 0]
    extension = any(m0 <= m_max and (m0, m0) <= stop for m0 in first_reads)
    return RecurrenceOutcome(mismatch is None, mismatch, extension)


# ---------------------------------------------------------------------------
# admissible-weight lower bound (used to justify x = 1 comparison bounds)
# ---------------------------------------------------------------------------


@functools.cache
def min_admissible_weight(k: int, a: int, flavor: str, parts: int, cap: int = 10**9) -> int:
    """Minimum weight of any solution with `parts` parts meeting the window
    and first-part bounds (mod-d conditions ignored, so this is a lower bound
    for every s, d), or cap if that is smaller; cap when no solution exists.

    After the values 1..v are placed, the parts still to come weigh at least
    v + 1 each, so a state of weight w with p parts cannot finish below
    w + (parts - p)(v + 1): states for which that reaches cap are dropped.
    A pure function of its arguments, so each distinct call runs the DP once.
    """
    over = flavor == OVER
    best = {(0, 0): 0}  # (prev, parts so far) -> min weight
    answer = 0 if parts == 0 else cap
    top = 2 * parts + 2
    for v in range(1, top + 1):
        nxt: dict[tuple[int, int], int] = {}
        for (prev, p), w in best.items():
            for g in range(0, k - prev):
                if v == 1 and g >= a:
                    break
                for gbar in (0, 1) if over else (0,):
                    add = g + gbar
                    if add > k - 1 or p + add > parts:
                        continue
                    key = (add, p + add)
                    val = w + v * add
                    if val + (parts - p - add) * (v + 1) < cap and val < nxt.get(key, cap):
                        nxt[key] = val
        best = nxt
        for (prev, p), w in best.items():
            if p == parts and w < answer:
                answer = w
        if not best:
            break
    return min(answer, cap)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_count_table_csv(fileobj, cp: CountParams, m_max: int, n_max: int) -> int:
    """Write nonzero counter values as (k, a, d, s, flavor, m, n, count) rows."""
    writer = csv.writer(fileobj)
    writer.writerow(["k", "a", "d", "s", "flavor", "m", "n", "count"])
    table = count_table(cp, max(m_max, n_max))
    written = 0
    for m in range(m_max + 1):
        for n in range(n_max + 1):
            c = table[m][n] if m <= n else 0
            if c:
                writer.writerow([cp.k, cp.a, cp.d, cp.s, cp.flavor, m, n, str(c)])
                written += 1
    return written
