"""Enumeration of partition and overpartition counters.

Two independent routes are provided for the multiplicity-side counters:

* a frequency-window dynamic program over part values, whose states carry
  their counts as one packed integer each, so that a transition is a single
  bigint shift-and-add.  It runs backward, from the largest value down to 1
  (the transfer-matrix method), so that a and s enter only at its last step:
  one build answers every (a, s) of a (k, d, flavor) and is held as one
  memo entry.  It comes in two shapes over the same states and
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

The applicability conditions are defined here once, in plain arithmetic:
where the identification of the constructed series is claimed
(identification_conditions, identification_grounded), where the main
identities are skipped (identities_skip_reason), and the companion
combination of congruence-side series (_companion_terms).  gseries imports
them for gf-match and the x = 1 forms.

This module needs only _packing and config, so the identities check runs
without the series ring: series is imported by the product-defined branch
of congruence_series alone, and csv by the CSV export.

All functions are pure.  The memo tables are module-level dicts under one
policy: _deepest holds each entry as (bounds, value) at the deepest bounds
asked for.  A memo keyed by a (k, d, flavor) group is made by _group_memo,
which registers it in _GROUP_MEMOS for harness to empty as each group ends;
the parts row (_width_cache) and the masks (_mask_cache) are shared across
groups and not registered.  The mask budget is kept under a lock, so
concurrent use is safe: a memo that a concurrent run empties costs a rebuild.
"""

from __future__ import annotations

import functools
import threading
from typing import Iterator, NamedTuple, Optional

from ._packing import DomainError, div_binomial, mul_binomial, read_slots
from .config import OVER, REGULAR


def modulus(k: int, d: int, flavor: str) -> int:
    """Modulus of the product side: 2k+2-d (regular) or 2k+1-d (over)."""
    return 2 * k + 2 - d if flavor == REGULAR else 2 * k + 1 - d


class _CountFields(NamedTuple):
    k: int
    a: int
    d: int
    s: int
    flavor: str


class CountParams(_CountFields):
    """Parameter tuple addressing one counter family.

    k >= 2, 1 <= d <= k, 0 <= s <= d - 1, 0 <= a <= k.  a = 0 is the
    degenerate boundary (the counters are identically zero there: no
    partition has a negative number of 1s).
    """

    __slots__ = ()

    def __new__(cls, k: int, a: int, d: int, s: int, flavor: str = REGULAR):
        if k < 2:
            raise DomainError("k must be at least 2")
        if not 1 <= d <= k:
            raise DomainError("d must satisfy 1 <= d <= k")
        if not 0 <= s <= d - 1:
            raise DomainError("s must satisfy 0 <= s <= d-1")
        if not 0 <= a <= k:
            raise DomainError("a must satisfy 0 <= a <= k")
        if flavor not in (REGULAR, OVER):
            raise DomainError(f"unknown flavor {flavor!r}")
        return super().__new__(cls, k, a, d, s, flavor)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate there too
        return cls(*iterable)

    @property
    def is_over(self) -> bool:
        return self.flavor == OVER


class _FreqFields(NamedTuple):
    freqs: tuple[int, ...]
    over_flags: tuple[int, ...]


class FreqSolution(_FreqFields):
    """A partition or overpartition encoded by part frequencies.

    freqs[i-1] is the number of non-overlined parts i; over_flags[i-1] is 0
    or 1 for the overlined copy.  A regular partition has over_flags all 0.
    """

    __slots__ = ()

    def __new__(cls, freqs: tuple[int, ...], over_flags: tuple[int, ...]):
        if len(freqs) != len(over_flags):
            raise ValueError("freqs and over_flags must have the same length")
        if any(f < 0 for f in freqs):
            raise ValueError("frequencies must be non-negative")
        if any(b not in (0, 1) for b in over_flags):
            raise ValueError("overline flags must be 0 or 1")
        return super().__new__(cls, freqs, over_flags)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def from_parts(cls, parts, overlined=()) -> "FreqSolution":
        """Build from a list of part values plus the values that are overlined."""
        values = list(parts) + list(overlined)
        if any(v < 1 for v in values):
            raise ValueError("parts must be at least 1")
        top = max(values + [0])
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
# the memo policy
# ---------------------------------------------------------------------------


def _deepest(memo: dict, key, want: tuple, build):
    """The memo policy: hold the deepest build, and serve from it every
    request that it covers.

    want is the tuple of bounds asked for at key.  memo[key] holds
    (bounds, value): the value last built, and the bounds it was built at.
    A held value whose bounds each reach want's is returned as it is.
    Otherwise build(*bounds) runs at the largest of want and the held
    bounds, and its value replaces the held one and is returned as built.
    It is never read back from memo, which a concurrent run may have
    emptied in between.
    """
    held = memo.get(key)
    if held is not None:
        bounds, value = held
        if all(h >= w for h, w in zip(bounds, want)):
            return value
        want = tuple(map(max, want, bounds))
    value = build(*want)
    memo[key] = want, value
    return value


_GROUP_MEMOS: list[dict] = []


def _group_memo() -> dict:
    """A new memo keyed by a (k, d, flavor) group, registered in
    _GROUP_MEMOS: harness._end_group empties every registered memo, in
    place, as each group ends."""
    memo: dict = {}
    _GROUP_MEMOS.append(memo)
    return memo


# ---------------------------------------------------------------------------
# fast route: frequency-window DP over packed count vectors
# ---------------------------------------------------------------------------

_width_cache: dict[str, tuple[tuple[int], list[int]]] = {}
_mask_cache: dict[tuple[int, int, int, int], int] = {}
_mask_bytes = 0  # total _mask_size of the masks in _mask_cache; both change under _mask_lock
_mask_lock = threading.Lock()
_MASK_BUDGET = 32 << 20  # bytes of masks that _mask_cache may hold
# (k, d, flavor) -> ((n_max, parts), {(a, s): table}) and ((n_max,), {(a, s): counts})
_table_cache = _group_memo()
_totals_cache = _group_memo()


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
    (-q; q)_inf^[over] / (q; q)_inf, from the deepest row held in
    _width_cache."""

    def build(n):
        every = range(1, n + 1)
        return _parts_row(every, every if flavor == OVER else (), n)

    return _deepest(_width_cache, flavor, (n_max,), build)


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

    Rows 0..parts (default n_max, every row that can be nonzero) and weights
    0..n_max are exact; the held table that serves them (_deepest) may be
    larger.  One build, held under (k, d, flavor), answers every (a, s) of
    the group.
    """
    parts = n_max if parts is None else min(parts, n_max)
    if cp.a == 0:
        return [[0] * (n_max + 1) for _ in range(parts + 1)]
    build = functools.partial(_compute_table, cp.k, cp.d, cp.flavor)
    return _deepest(_table_cache, (cp.k, cp.d, cp.flavor), (n_max, parts), build)[cp.a, cp.s]


def count_mult(cp: CountParams, m: int, n: int) -> int:
    """Number of admissible solutions of weight n with exactly m parts."""
    if m < 0 or n < 0 or m > n:
        return 0
    return count_table(cp, n)[m][n]


def count_mult_totals(cp: CountParams, n_max: int) -> list[int]:
    """Numbers of admissible solutions of weight 0..n_max (any number of parts),
    by the weight-only DP, without the parts axis.  Held as count_table is,
    one build for every (a, s) of the group (k, d, flavor)."""
    if cp.a == 0:
        return [0] * (n_max + 1)
    build = functools.partial(_compute_totals, cp.k, cp.d, cp.flavor)
    lists = _deepest(_totals_cache, (cp.k, cp.d, cp.flavor), (n_max,), build)
    return lists[cp.a, cp.s][: n_max + 1]


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

# (k, d, c, flavor) -> ((n,), (row, product_defined))
_cong_cache = _group_memo()


def congruence_series(
    k: int, d: int, c: int, flavor: str, trunc_order: int
) -> tuple[list[int], bool]:
    """Generating function of the congruence-side counter with lower index c,
    as its coefficient row through q^trunc_order.

    Regular flavor, modulus M = 2k+2-d: partitions into parts not congruent
    to 0 or +-c mod M, counted by direct enumeration; if 2c = M the counter
    has no combinatorial description and is *defined* as the coefficient of
    the triple product (q^c, q^(M-c), q^M; q^M)_inf / (q; q)_inf.  That
    branch alone reads the series layer (series.triple_product).

    Over flavor, modulus 2k+1-d: non-overlined parts avoid 0, +-c mod the
    modulus and overlined parts are free; if 2c equals the modulus, all parts
    avoid multiples of k + (1-d)/2 instead (d must be odd there).

    Returns (row, product_defined), row[n] the counter's value at n.
    """
    n = trunc_order
    M = modulus(k, d, flavor)
    every = range(1, n + 1)
    if 2 * c == M:
        if flavor == REGULAR:
            from .series import triple_product

            return _parts_row(every, (), n, list(triple_product(c, M, n).coeffs)), True
        if d % 2 == 0:
            raise DomainError(
                "exceptional over case needs k + (1-d)/2 integral, so d must be odd"
            )
        kappa = k + (1 - d) // 2
        allowed = [v for v in every if v % kappa != 0]
        return _parts_row(allowed, allowed, n), False
    r = c % M
    bad = {0, r, (M - r) % M}
    allowed = [v for v in every if v % M not in bad]
    return _parts_row(allowed, every if flavor == OVER else (), n), False


def cached_congruence_series(k: int, d: int, c: int, flavor: str, n: int):
    """congruence_series(k, d, c, flavor, ...) exact through q^n or deeper,
    as (row, product_defined), from _cong_cache.  A miss builds through
    q^max(n, 16) and replaces the held row."""
    build = functools.partial(congruence_series, k, d, c, flavor)
    return _deepest(_cong_cache, (k, d, c, flavor), (max(n, 16),), build)


def count_cong(cp: CountParams, n: int) -> int:
    """Congruence-side counter value at n (flavor-aware)."""
    if n < 0:
        return 0
    return cached_congruence_series(cp.k, cp.d, cp.a, cp.flavor, n)[0][n]


# ---------------------------------------------------------------------------
# applicability: where the identification and the identities are claimed
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


def identities_skip_reason(k, a, d, s, flavor) -> Optional[str]:
    """Why the main identities do not apply at a tuple, or None where the
    identification conditions hold.  The identities report names the
    condition without the offending value; the wording is canonical output.
    Their side condition on 2(a+s) is the harness's, since --alt-condition
    selects it."""
    if identification_conditions(k, a, d, s, flavor)[0]:
        return None
    if flavor == REGULAR:
        return f"2(a+s) or 2(k+1) not divisible by d = {d}"
    return "over flavor needs d in {1, 2}"


def identification_grounded(k, a, d, s, flavor) -> bool:
    """True when the determining chain of functional equations never
    references a lower index below zero.  Chains step (a, s) -> (a-1, s+1)
    with the index sum non-increasing, so only the initial sum matters.
    The lower indices referenced are those of _equation_terms; the
    over flavor also uses the k-a-s index, hence the tighter bound.  Tuples
    failing this are exactly where the identification breaks.

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


def _companion_terms(a: int, d: int, s: int, reflected: bool) -> list[tuple[int, int, int]]:
    """The companion combination (1 - q^(d-s)) F(a+s) + (q^e1 - q^e2) F(c) as
    terms (sign, e, c), each standing for sign q^e F(c).  (e1, e2, c) is
    (d-s, d, a+s-d) for the shifted argument and (a+s, a, d-a-s) for the
    reflected one.

    F is the congruence-side series in the companion identities, and the
    triple product or the bilateral theta sum in the x = 1 product forms
    (gseries.x_one_product_forms).  Terms at index c = 0 are left out: the triple product and the theta sum
    vanish there, and the identities at d = a+s have no such term.
    """
    e1, e2, c = (a + s, a, d - a - s) if reflected else (d - s, d, a + s - d)
    terms = [(1, 0, a + s), (-1, d - s, a + s), (1, e1, c), (-1, e2, c)]
    return [term for term in terms if term[2] != 0]


# ---------------------------------------------------------------------------
# recurrence verification
# ---------------------------------------------------------------------------


def _equation_terms(k: int, a: int, s: int, flavor: str) -> list[tuple[int, int]]:
    """The right-hand terms (j, e) of the functional equation at (k, a, s):

        G[s]_(k,a) - G[(s+1) mod d]_(k,a-1) = sum of (xq)^j G[0]_(k,e)(xq)

    over (j, e) = (a - 1, k - a + 1 - s), plus (a, k - a - s) for
    overpartitions.  On the counters, a solution counted on the left has
    exactly a - 1 non-overlined 1s; taking off those j parts (and the
    overlined 1, for the second term) and lowering every other part by one
    leaves a solution at lower index e and superscript 0, with m - j parts
    of weight n - m.  A lower index e <= 0 counts nothing.

    This is the one definition of the terms: the counter recurrence
    (verify_recurrence), the functional-equation fill and check
    (gseries._recurrence_tables, gseries.verify_gf_functional_equation) and
    the summand displays (gseries.verify_summand_recurrences) read it.
    """
    terms = [(a - 1, k - a + 1 - s)]
    if flavor == OVER:
        terms.append((a, k - a - s))
    return terms


class RecurrenceOutcome(NamedTuple):
    """Result of sweeping the counter recurrence over a (parts, weight) box."""

    ok: bool
    first_mismatch: Optional[tuple[int, int, int, int]]  # (m, n, lhs, rhs)
    extension_used: bool  # some referenced lower index fell below 0


def verify_recurrence(cp: CountParams, m_max: int, n_max: int) -> RecurrenceOutcome:
    """Check the defining recurrence of the counters on a (parts, weight) box.

    The counter at (k, a, s) splits by the number of 1s: solutions with fewer
    than a-1 of them biject onto the (a-1, s+1) counter, and the rest onto
    the counters of the terms (j, e) of _equation_terms, at lower index e
    and (m-j, n-m).  Superscripts are residues mod d; lower indices below 0
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
    # (table, e, j) of each term: read at (m - j, n - m)
    stripped = [(table(e, 0), e, j) for j, e in _equation_terms(k, a, s, flavor)]
    mismatch = None
    for m in range(m_max + 1):
        lhs = lhs_table[m][:width] if lhs_table else [0] * width
        rhs = list(same_table[m][:width]) if same_table else [0] * width
        for rows, _, j in stripped:
            if 0 <= m - j < len(rows):
                rhs[m:] = [u + v for u, v in zip(rhs[m:], rows[m - j])]
        if lhs != rhs:
            n = next(n for n, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            if mismatch is None or n < mismatch[1]:
                mismatch = (m, n, lhs[n], rhs[n])
    # the sweep runs n-major and stops at its first mismatch; each
    # negative-index counter is first read at m = n = (its j, or 0)
    stop = (mismatch[1], mismatch[0]) if mismatch else (n_max, m_max)
    first_reads = [0] if a - 1 < 0 else []
    first_reads += [max(j, 0) for _, e, j in stripped if e < 0]
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
    import csv

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
