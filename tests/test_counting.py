"""Counter enumeration: paper-style fixtures, cross-checks, and recurrences."""

import functools
import io
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from qgordon import _packing, counting, harness
from qgordon.counting import (
    OVER,
    REGULAR,
    CountParams,
    FreqSolution,
    RecurrenceOutcome,
    _equation_terms,
    congruence_series,
    count_cong,
    count_mult,
    count_mult_brute,
    count_mult_total,
    count_mult_totals,
    count_table,
    iter_freq_solutions,
    min_admissible_weight,
    satisfies_mult_conditions,
    verify_recurrence,
    write_count_table_csv,
)
from qgordon.gseries import enumerated_gf
from qgordon.harness import SuiteConfig, check_recurrences, run_suite
from qgordon.series import BiSeries, DomainError, PowerSeries, q_poch_inf, triple_product

# the two worked examples used throughout: a partition of 21 with 8 parts and
# an overpartition of 54 with 12 parts
REGULAR_EXAMPLE = FreqSolution.from_parts([5, 5, 3, 3, 2, 1, 1, 1])
OVER_EXAMPLE = FreqSolution.from_parts(
    [8, 8, 7, 7, 5, 5, 3, 3, 1], overlined=[4, 2, 1]
)


def test_freq_solution_encoding():
    assert REGULAR_EXAMPLE.weight == 21
    assert REGULAR_EXAMPLE.num_parts == 8
    assert REGULAR_EXAMPLE.freqs == (3, 1, 2, 0, 2)
    assert OVER_EXAMPLE.weight == 54
    assert OVER_EXAMPLE.num_parts == 12
    assert OVER_EXAMPLE.freq(1) == 1 and OVER_EXAMPLE.over_flag(1) == 1
    assert OVER_EXAMPLE.freq(4) == 0 and OVER_EXAMPLE.over_flag(4) == 1


@pytest.mark.parametrize(
    "parts, overlined", [([3, 0], ()), ([2, -1], ()), ([2], [0]), ([0], ()), ([], [-2])]
)
def test_from_parts_rejects_a_part_below_one(parts, overlined):
    # a part of 0 or less would index the frequency list from its end
    with pytest.raises(ValueError, match="at least 1"):
        FreqSolution.from_parts(parts, overlined)
    assert FreqSolution.from_parts([]) == FreqSolution((), ())


def test_rho_table_of_the_overpartition_example():
    assert OVER_EXAMPLE.rho(1) == -1
    assert OVER_EXAMPLE.rho(2) == 0
    assert OVER_EXAMPLE.rho(3) == 0
    for i in range(4, 12):
        assert OVER_EXAMPLE.rho(i) == 1


def test_v_table_of_the_overpartition_example():
    assert OVER_EXAMPLE.v_stat(1) == 1
    assert OVER_EXAMPLE.v_stat(2) == 2
    assert OVER_EXAMPLE.v_stat(3) == 2
    for i in range(4, 12):
        assert OVER_EXAMPLE.v_stat(i) == 3


def test_rho_vanishes_on_regular_partitions():
    for i in range(1, 10):
        assert REGULAR_EXAMPLE.rho(i) == 0


def test_rho_v_relation():
    # V(i) - rho(i) = 2 * (number of odd-indexed overlined parts <= i)
    rng = random.Random(12)
    for _ in range(40):
        top = rng.randint(1, 10)
        sol = FreqSolution(
            tuple(rng.randint(0, 3) for _ in range(top)),
            tuple(rng.randint(0, 1) for _ in range(top)),
        )
        for i in range(1, top + 3):
            odd_lined = sum(sol.over_flag(j) for j in range(1, i + 1) if j % 2 == 1)
            assert sol.v_stat(i) - sol.rho(i) == 2 * odd_lined
            assert (sol.v_stat(i) - sol.rho(i)) % 2 == 0


def test_overpartition_example_is_accepted():
    cp = CountParams(k=5, a=3, d=4, s=1, flavor=OVER)
    assert satisfies_mult_conditions(OVER_EXAMPLE, cp)


def test_regular_example_fails_only_the_first_part_bound():
    # The partition 5+5+3+3+2+1+1+1 satisfies every window and residue
    # condition at (k,a,d,s) = (5,3,4,1), but it has three 1s while the
    # first-part bound requires strictly fewer than a = 3, so it is rejected.
    # (The strict bound is forced by the d = 1 specialization: with at most
    # a-1 ones the counters match the congruence side, with at most a they
    # do not.)
    cp = CountParams(k=5, a=3, d=4, s=1, flavor=REGULAR)
    assert REGULAR_EXAMPLE.freq(1) == 3 == cp.a
    assert not satisfies_mult_conditions(REGULAR_EXAMPLE, cp)
    # every window and residue condition holds at these parameters
    sol = REGULAR_EXAMPLE
    k, a, d, s = 5, 3, 4, 1
    for i in range(1, 7):
        window = sol.freq(i) + sol.freq(i + 1)
        assert window < k
        delta = k - window
        if 1 <= delta <= d - 1:
            f_odd = sol.freq(i) if i % 2 else sol.freq(i + 1)
            assert (a + s - 1 - f_odd) % d <= delta - 1


def test_empty_solution_is_accepted_for_positive_a():
    empty = FreqSolution((), ())
    assert satisfies_mult_conditions(empty, CountParams(3, 2, 2, 1))
    assert satisfies_mult_conditions(empty, CountParams(2, 1, 1, 0, OVER))
    assert not satisfies_mult_conditions(empty, CountParams(3, 0, 2, 0))


def test_counts_at_zero_parts():
    for cp in (CountParams(3, 2, 2, 1), CountParams(4, 4, 3, 2, OVER)):
        assert count_mult(cp, 0, 0) == 1
        for n in range(1, 6):
            assert count_mult(cp, 0, n) == 0


def test_counts_vanish_for_a_zero():
    cp = CountParams(3, 0, 2, 1)
    for n in range(6):
        for m in range(n + 1):
            assert count_mult(cp, m, n) == 0


def test_gordon_count_of_four():
    # partitions of 4 under f_i + f_{i+1} < 2, f_1 < 2: only 4 and 3+1
    cp = CountParams(2, 2, 1, 0)
    assert count_mult_total(cp, 4) == 2
    assert count_mult_brute(cp, None, 4) == 2


def test_tables_match_brute_force_regular():
    for cp in (
        CountParams(2, 2, 1, 0),
        CountParams(3, 2, 2, 1),
        CountParams(4, 3, 3, 2),
        CountParams(5, 3, 4, 1),
    ):
        for n in range(11):
            for m in range(n + 1):
                assert count_mult(cp, m, n) == count_mult_brute(cp, m, n), (cp, m, n)


def test_tables_match_brute_force_over():
    for cp in (
        CountParams(2, 2, 2, 1, OVER),
        CountParams(3, 2, 2, 0, OVER),
        CountParams(4, 3, 3, 1, OVER),
        CountParams(5, 3, 4, 1, OVER),
    ):
        for n in range(9):
            for m in range(n + 1):
                assert count_mult(cp, m, n) == count_mult_brute(cp, m, n), (cp, m, n)


def test_total_is_row_sum_and_bounded_by_partition_count():
    inv = q_poch_inf(1, 1, 1, 20).invert_unit()
    for cp in (CountParams(3, 2, 2, 1), CountParams(4, 2, 1, 0)):
        for n in range(16):
            total = count_mult_total(cp, n)
            assert 0 <= total <= inv.coefficient(n)
            assert total == sum(count_mult(cp, m, n) for m in range(n + 1))


def test_gordon_counts_monotone_in_a_for_d_one():
    for k in (2, 3, 4):
        for n in range(18):
            values = [count_mult_total(CountParams(k, a, 1, 0), n) for a in range(1, k + 1)]
            assert values == sorted(values)


@st.composite
def count_params(draw):
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, k))
    return CountParams(
        k,
        draw(st.integers(0, k)),
        d,
        draw(st.integers(0, d - 1)),
        draw(st.sampled_from((REGULAR, OVER))),
    )


@settings(max_examples=40, deadline=None)
@given(count_params(), st.integers(0, 16))
def test_weight_only_dp_matches_table_and_brute_force(cp, n_max):
    totals = count_mult_totals(cp, n_max)
    assert len(totals) == n_max + 1
    table = count_table(cp, n_max)
    assert totals == [sum(table[m][n] for m in range(n + 1)) for n in range(n_max + 1)]
    for n in range(min(n_max, 10) + 1):
        assert totals[n] == count_mult_brute(cp, None, n), (cp, n)


def forward_window_dp(cp, n_max, move):
    """The forward frequency-window DP, one (a, s) at a time: the oracle of
    the backward group build.  States are (f_v + fbar_v, rho(v) mod d)."""
    k, a, d, s = cp.k, cp.a, cp.d, cp.s

    def window_ok(prev, g, i, rho):
        # window at value i is prev + g (prev = f_i + fbar_i, g = f_(i+1))
        window = prev + g
        if window >= k:
            return False
        delta = k - window
        if 1 <= delta <= d - 1:
            f_odd = prev if i % 2 else g
            if (a + s - 1 - f_odd - rho) % d > delta - 1:
                return False
        return True

    states = {(0, 0): 1}
    gbar_choices = (0, 1) if cp.is_over else (0,)
    for v in range(1, n_max + 1):
        new_states = {}
        sign = 1 if v % 2 == 0 else -1
        for (prev, rho), packed in states.items():
            for g in range(0, k - prev):
                if v == 1 and g >= a:
                    break
                if v > 1 and not window_ok(prev, g, v - 1, rho):
                    continue
                for gbar in gbar_choices:
                    p = g + gbar
                    w = v * p
                    if p > k - 1 or w > n_max:
                        continue
                    moved = move(packed, p, w) if w else packed
                    if moved:
                        key = (p, (rho + sign * gbar) % d)
                        new_states[key] = new_states.get(key, 0) + moved
        states = new_states
    return sum(
        packed for (prev, rho), packed in states.items() if window_ok(prev, 0, n_max, rho)
    )


def forward_table(cp, n_max, parts):
    """(parts, weight) table of one tuple by the forward DP, its masks built
    by the OR loop."""
    stride = n_max + 1
    if cp.a <= 0:
        return [[0] * stride for _ in range(parts + 1)]
    bits = counting._slot_bits(cp.flavor, n_max)

    def move(packed, p, w):
        limit = n_max - w
        mask = weight_mask_or_loop(stride, limit, min(parts - p, limit) + 1, bits)
        return (packed & mask) << (bits * (p * stride + w))

    packed = forward_window_dp(cp, n_max, move)
    flat = _packing.read_slots(packed, (parts + 1) * stride, bits, signed=False)
    return [flat[m * stride : (m + 1) * stride] for m in range(parts + 1)]


def forward_totals(cp, n_max):
    """Counts by weight of one tuple by the forward DP."""
    if cp.a <= 0:
        return [0] * (n_max + 1)
    bits = counting._slot_bits(cp.flavor, n_max)
    window = (1 << (bits * (n_max + 1))) - 1

    def move(packed, p, w):
        return (packed << (bits * w)) & window

    return _packing.read_slots(forward_window_dp(cp, n_max, move), n_max + 1, bits, signed=False)


def group_starts(k, d):
    """The (a, s) that one build of a (k, d, flavor) group answers."""
    return {(a, s) for a in range(1, k + 1) for s in range(d)}


groups = st.tuples(
    st.integers(2, 5), st.integers(1, 5), st.sampled_from((REGULAR, OVER))
).filter(lambda group: group[1] <= group[0])


@settings(max_examples=60, deadline=None)
@given(groups, st.integers(0, 25), st.integers(0, 25))
@example((5, 5, OVER), 0, 0)
@example((4, 3, REGULAR), 1, 1)
@example((3, 2, OVER), 1, 0)
def test_group_build_matches_forward_dp(group, n_max, parts):
    k, d, flavor = group
    parts = min(parts, n_max)
    tables = counting._compute_table(k, d, flavor, n_max, parts)
    totals = counting._compute_totals(k, d, flavor, n_max)
    assert set(tables) == set(totals) == group_starts(k, d)
    for (a, s), table in tables.items():
        cp = CountParams(k, a, d, s, flavor)
        assert table == forward_table(cp, n_max, parts), (a, s)
        assert totals[a, s] == forward_totals(cp, n_max), (a, s)


def test_group_build_at_the_smallest_bounds(monkeypatch):
    # N = 0 holds the empty solution alone, N = 1 adds the part 1 (and 1-bar);
    # a = 0 admits nothing
    harness._end_group()
    for k, d, flavor in ((2, 1, REGULAR), (3, 2, OVER), (4, 3, REGULAR), (5, 5, OVER)):
        for n_max in (0, 1):
            for a in range(k + 1):
                for s in range(d):
                    cp = CountParams(k, a, d, s, flavor)
                    table = [row[: n_max + 1] for row in count_table(cp, n_max)[: n_max + 1]]
                    totals = count_mult_totals(cp, n_max)
                    assert table == forward_table(cp, n_max, n_max), (cp, n_max)
                    assert totals == forward_totals(cp, n_max), (cp, n_max)
                    assert totals == [count_mult_brute(cp, None, n) for n in range(n_max + 1)]
                    if n_max == 0:
                        assert table == [[1 if a else 0]]


def test_group_build_matches_brute_force():
    n_max = 10
    for k, d, flavor in ((2, 2, OVER), (3, 3, REGULAR), (4, 2, OVER), (5, 4, REGULAR)):
        tables = counting._compute_table(k, d, flavor, n_max, n_max)
        expected = {start: [[0] * (n_max + 1) for _ in range(n_max + 1)] for start in tables}
        for n in range(n_max + 1):
            for sol in iter_freq_solutions(n, flavor):
                for a, s in expected:
                    if satisfies_mult_conditions(sol, CountParams(k, a, d, s, flavor)):
                        expected[a, s][sol.num_parts][n] += 1
        assert tables == expected, (k, d, flavor)


@settings(max_examples=40, deadline=None)
@given(groups, st.integers(0, 25), st.integers(0, 25))
def test_partial_table_is_the_first_rows_of_the_full_table(group, n_max, parts):
    parts = min(parts, n_max)
    full = counting._compute_table(*group, n_max, n_max)
    partial = counting._compute_table(*group, n_max, parts)
    assert partial == {start: table[: parts + 1] for start, table in full.items()}


def test_held_table_serves_smaller_requests(monkeypatch):
    built = []
    compute_table = counting._compute_table

    def spy_table(k, d, flavor, n_max, parts):
        built.append((n_max, parts))
        return compute_table(k, d, flavor, n_max, parts)

    harness._end_group()
    monkeypatch.setattr(counting, "_compute_table", spy_table)
    cp = CountParams(3, 2, 2, 1, OVER)
    full = count_table(cp, 20)
    # a held full table serves enumerated_gf, which reads rows 0..X only
    for x_order, trunc_order in ((6, 20), (6, 15), (25, 20)):
        got = enumerated_gf(3, 2, 2, 1, OVER, x_order, trunc_order)
        rows = [row[: trunc_order + 1] for row in full[: x_order + 1]]
        assert got == BiSeries(rows, x_order, trunc_order)
    assert built == [(20, 20)]
    # a miss builds the larger of the held and requested bounds
    assert len(count_table(cp, 24, 5)) == 21
    assert count_table(cp, 22, 20) is count_table(cp, 24, 18)
    assert built == [(20, 20), (24, 20)]
    harness._end_group()
    count_table(cp, 12, 3)
    count_table(cp, 8, 6)
    assert built[2:] == [(12, 3), (12, 6)]


def test_group_build_holds_the_union_of_its_bounds(monkeypatch):
    built = []
    compute_table, compute_totals = counting._compute_table, counting._compute_totals

    def spy_table(k, d, flavor, n_max, parts):
        built.append((k, d, flavor, n_max, parts))
        return compute_table(k, d, flavor, n_max, parts)

    def spy_totals(k, d, flavor, n_max):
        built.append((k, d, flavor, n_max))
        return compute_totals(k, d, flavor, n_max)

    harness._end_group()
    monkeypatch.setattr(counting, "_compute_table", spy_table)
    monkeypatch.setattr(counting, "_compute_totals", spy_totals)
    group = sorted(group_starts(3, 2))
    # one build fills the group's entry, with a table for every (a, s)
    count_table(CountParams(3, 2, 2, 1, OVER), 20, 4)
    assert built == [(3, 2, OVER, 20, 4)]
    assert list(counting._table_cache) == [(3, 2, OVER)]
    assert sorted(counting._table_cache[3, 2, OVER][1]) == group
    assert len(count_table(CountParams(3, 1, 2, 0, OVER), 12, 3)) == 5
    assert len(built) == 1
    # more rows but fewer weights: the miss builds the union for the whole
    # group, so no held table shrinks
    count_table(CountParams(3, 3, 2, 0, OVER), 10, 8)
    assert built[1:] == [(3, 2, OVER, 20, 8)]
    (held_n, held_parts), tables = counting._table_cache[3, 2, OVER]
    assert (held_n, held_parts) == (20, 8)
    for start in group:
        assert (len(tables[start]), len(tables[start][0])) == (9, 21), start
    # another group is built on its own and leaves this one alone
    count_table(CountParams(3, 2, 1, 0, OVER), 5, 2)
    assert built[2:] == [(3, 1, OVER, 5, 2)]
    assert counting._table_cache[3, 2, OVER][1] is tables
    # the weight-only lists follow the same rule
    count_mult_totals(CountParams(3, 2, 2, 1, OVER), 30)
    assert len(count_mult_totals(CountParams(3, 3, 2, 0, OVER), 10)) == 11
    count_mult_totals(CountParams(3, 1, 2, 1, OVER), 35)
    assert built[3:] == [(3, 2, OVER, 30), (3, 2, OVER, 35)]
    (held_n,), lists = counting._totals_cache[3, 2, OVER]
    assert held_n == 35 and sorted(lists) == group
    assert all(len(lists[start]) == 36 for start in group)


def test_x_one_grid_builds_one_table_per_group(monkeypatch):
    # criteria 07/08: gf-match reads the tables of the 54 identified tuples,
    # which fall in 12 (k, d, flavor) groups
    built = []
    compute_table = counting._compute_table

    def spy_table(k, d, flavor, n_max, parts):
        built.append((k, d, flavor))
        return compute_table(k, d, flavor, n_max, parts)

    harness._end_group()
    monkeypatch.setattr(counting, "_compute_table", spy_table)
    config = SuiteConfig(
        checks=("gf-match", "product-eval"), ks=(2, 3, 4), ds=(1, 2, 3, 4),
        trunc_order=40, x_order=10,
    )
    run_suite(config)
    assert len(built) == len(set(built)) == 12


def test_weight_only_dp_is_exact_past_64_bits():
    # the d = 1 over identity at k = a = 3: its counts first pass 2^64 at n = 389
    totals = count_mult_totals(CountParams(3, 3, 1, 0, OVER), 400)
    row, special = congruence_series(3, 1, 3, OVER, 400)
    assert not special
    assert totals == row
    assert next(n for n, c in enumerate(totals) if c >= 1 << 64) == 389
    assert count_mult_totals(CountParams(3, 3, 1, 0, OVER), 50) == totals[:51]


def test_slot_width_holds_the_partition_count():
    for flavor, n_max in ((REGULAR, 301), (OVER, 301), (OVER, 400)):
        gf = q_poch_inf(1, 1, 1, n_max).invert_unit()
        if flavor == OVER:
            gf = gf * q_poch_inf(-1, 1, 1, n_max)
        bits = counting._slot_bits(flavor, n_max)
        assert bits % 8 == 0
        assert gf.coefficient(n_max).bit_length() <= bits < gf.coefficient(n_max).bit_length() + 8
    assert counting._slot_bits(OVER, 400) > 64


def test_slot_width_is_read_off_the_deepest_held_row(monkeypatch):
    monkeypatch.setattr(counting, "_width_cache", {})
    deep = counting.partition_counts(OVER, 60)
    assert counting.partition_counts(OVER, 20) is deep
    assert counting._slot_bits(OVER, 20) == (deep[20].bit_length() + 7) & ~7
    assert counting.partition_counts(OVER, 61)[:61] == deep
    assert list(counting._width_cache) == [OVER]


def weight_mask_or_loop(stride, limit, rows, bits):
    """The OR-one-row-at-a-time build of _weight_mask: its oracle."""
    row = (1 << (bits * (limit + 1))) - 1
    got = 0
    for m in range(rows):
        got |= row << (bits * stride * m)
    return got


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.data(), st.integers(1, 30), st.sampled_from((8, 16, 24, 64, 72)))
def test_weight_mask_matches_or_loop(stride, data, rows, bits):
    limit = data.draw(st.integers(0, stride - 1))
    got = counting._weight_mask(stride, limit, rows, bits)
    assert got == weight_mask_or_loop(stride, limit, rows, bits)


def test_identities_build_one_weight_only_dp_per_group(monkeypatch):
    built = []
    compute_totals = counting._compute_totals

    def spy_totals(k, d, flavor, n_max):
        built.append((k, d, flavor, n_max))
        return compute_totals(k, d, flavor, n_max)

    def no_table(k, d, flavor, n_max, parts):
        raise AssertionError("the identities check built a (parts, weight) table")

    harness._end_group()
    monkeypatch.setattr(counting, "_compute_totals", spy_totals)
    monkeypatch.setattr(counting, "_compute_table", no_table)
    reports = run_suite(SuiteConfig(checks=("identities",), ks=(2, 3), trunc_order=40))
    assert any(r.status != "skipped" for r in reports)
    # k in (2, 3), d in (1, 2), both flavors
    assert len(built) == len(set(built)) == 8
    assert all(n_max == 40 for *_, n_max in built)


def test_mask_cache_stays_under_its_byte_budget(monkeypatch):
    budget = 1 << 20
    monkeypatch.setattr(counting, "_mask_cache", {})
    monkeypatch.setattr(counting, "_mask_bytes", 0)
    flavors = (REGULAR, OVER)
    unbounded = {flavor: counting._compute_table(2, 1, flavor, 120, 120) for flavor in flavors}
    needed = len(counting._mask_cache)
    assert sum(map(counting._mask_size, counting._mask_cache.values())) > 4 * budget

    held = []
    weight_mask = counting._weight_mask

    def spy_mask(*args):
        got = weight_mask(*args)
        assert got == weight_mask_or_loop(*args)
        held.append(sum(map(counting._mask_size, counting._mask_cache.values())))
        assert held[-1] == counting._mask_bytes
        return got

    monkeypatch.setattr(counting, "_mask_cache", {})
    monkeypatch.setattr(counting, "_mask_bytes", 0)
    monkeypatch.setattr(counting, "_MASK_BUDGET", budget)
    monkeypatch.setattr(counting, "_weight_mask", spy_mask)
    for flavor in flavors:
        assert counting._compute_table(2, 1, flavor, 120, 120) == unbounded[flavor]
    assert held and max(held) <= budget
    assert 0 < len(counting._mask_cache) < needed


def test_mask_budget_holds_under_threads(monkeypatch):
    budget = 1 << 16
    monkeypatch.setattr(counting, "_mask_cache", {})
    monkeypatch.setattr(counting, "_mask_bytes", 0)
    monkeypatch.setattr(counting, "_MASK_BUDGET", budget)
    errors = []

    def worker(seed):
        try:
            for i in range(2000):
                counting._weight_mask(41, (i * seed) % 41, 1 + i % 7, 64)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(1, 7)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    held = sum(map(counting._mask_size, counting._mask_cache.values()))
    assert held == counting._mask_bytes <= budget


def test_identities_build_each_congruence_series_once(monkeypatch):
    built = []
    congruence_series = counting.congruence_series

    def spy(k, d, c, flavor, trunc_order):
        built.append((k, d, c, flavor))
        return congruence_series(k, d, c, flavor, trunc_order)

    harness._end_group()
    monkeypatch.setattr(counting, "congruence_series", spy)
    reports = run_suite(SuiteConfig(checks=("identities",), trunc_order=80))
    assert any(r.status == "pass" for r in reports)
    assert built
    assert len(built) == len(set(built))
    assert counting._cong_cache == {}  # emptied as each group ends


def test_regular_equals_over_restricted_to_no_overlines():
    for k, a, d, s in ((3, 2, 2, 1), (4, 3, 3, 2), (2, 2, 2, 0)):
        reg = CountParams(k, a, d, s, REGULAR)
        over = CountParams(k, a, d, s, OVER)
        for n in range(9):
            direct = count_mult_total(reg, n)
            filtered = sum(
                1
                for sol in iter_freq_solutions(n, OVER)
                if sol.is_regular() and satisfies_mult_conditions(sol, over)
            )
            assert direct == filtered


# ---------------------------------------------------------------------------
# congruence side
# ---------------------------------------------------------------------------


def test_congruence_count_of_four():
    # parts not 0, +-2 mod 5, i.e. from {1, 4, 6, 9, ...}: 4 and 1+1+1+1
    cp = CountParams(2, 2, 1, 0)
    assert count_cong(cp, 4) == 2
    assert count_cong(cp, 0) == 1


def test_congruence_series_matches_products_regular():
    # direct enumeration against the triple-product / euler-product formula
    n = 30
    inv_euler = q_poch_inf(1, 1, 1, n).invert_unit()
    for k in (2, 3, 4):
        for d in range(1, min(k, 3) + 1):
            modulus = 2 * k + 2 - d
            for a in range(1, k + 1):
                if 2 * a == modulus:
                    continue
                row, special = congruence_series(k, d, a, REGULAR, n)
                assert not special
                product = triple_product(a, modulus, n) * inv_euler
                assert row == list(product.coeffs), (k, d, a)


def test_congruence_series_matches_products_over():
    n = 24
    inv_euler = q_poch_inf(1, 1, 1, n).invert_unit()
    lined_all = q_poch_inf(-1, 1, 1, n)  # (-q; q)_inf
    for k in (2, 3):
        for d in (1, 2):
            modulus = 2 * k + 1 - d
            for a in range(1, k + 1):
                if 2 * a == modulus:
                    continue
                row, special = congruence_series(k, d, a, OVER, n)
                assert not special
                product = lined_all * triple_product(a, modulus, n) * inv_euler
                assert row == list(product.coeffs), (k, d, a)


def test_congruence_series_over_exceptional_euler_case():
    # 2a = 2k+1-d with d = 1: all parts avoid multiples of k; the product
    # form follows by Euler's identity
    n = 24
    for k in (2, 3, 4):
        row, special = congruence_series(k, 1, k, OVER, n)
        assert not special
        product = (
            q_poch_inf(-1, 1, 1, n)
            * triple_product(k, 2 * k, n)
            * q_poch_inf(1, 1, 1, n).invert_unit()
        )
        assert row == list(product.coeffs), k


def test_congruence_series_exceptional_regular_is_product_defined():
    # 2a = 2k+2-d: no combinatorial description; coefficients come from the
    # triple product directly
    row, special = congruence_series(3, 2, 3, REGULAR, 20)
    assert special
    expected = triple_product(3, 6, 20) * q_poch_inf(1, 1, 1, 20).invert_unit()
    assert row == list(expected.coeffs)


def test_congruence_series_uses_no_ring_product(monkeypatch):
    # the congruence side is built as rows; the product tests above stay
    # independent oracles because they alone multiply and invert series
    def forbidden(*args, **kwargs):
        raise AssertionError("congruence_series used the series ring")

    monkeypatch.setattr(_packing, "multiply_tables", forbidden)
    monkeypatch.setattr(PowerSeries, "invert_unit", forbidden)
    monkeypatch.setattr(BiSeries, "invert_unit", forbidden)
    cases = [
        (2, 1, 1, REGULAR, False),
        (3, 2, 3, REGULAR, True),  # 2c = 2k+2-d: product-defined
        (2, 1, 1, OVER, False),
        (3, 1, 3, OVER, False),  # 2c = 2k+1-d: parts avoid multiples of k
    ]
    for k, d, c, flavor, special in cases:
        row, got_special = congruence_series(k, d, c, flavor, 40)
        assert got_special == special
        assert row[0] == 1


def test_congruence_over_exceptional_needs_odd_d():
    # 2a = 2k+1-d forces d odd by parity, so the exceptional over case can
    # only trigger with k + (1-d)/2 integral; even d never reaches it
    for k in (2, 3, 4):
        for d in (2, 4):
            if d > k:
                continue
            for a in range(1, k + 1):
                assert 2 * a != 2 * k + 1 - d


# ---------------------------------------------------------------------------
# recurrences
# ---------------------------------------------------------------------------


def test_recurrence_regular_gordon():
    out = verify_recurrence(CountParams(2, 2, 1, 0), 20, 20)
    assert out.ok, out
    assert not out.extension_used


def test_recurrence_over():
    out = verify_recurrence(CountParams(3, 2, 2, 1, OVER), 15, 15)
    assert out.ok, out


def test_recurrence_at_a_one_reduces():
    # with a = 1 the (a-1)-counter vanishes, so the counter equals its
    # shifted lower-index companion directly
    k, d, s = 3, 2, 1
    cp = CountParams(k, 1, d, s)
    for n in range(12):
        for m in range(n + 1):
            lhs = count_mult(cp, m, n)
            rhs = count_mult(CountParams(k, k - s, d, 0), m, n - m) if n - m >= 0 else 0
            assert lhs == rhs


def test_recurrence_flags_negative_index_extension():
    # a + s > k + 1 makes the stripped-class index negative; the class is
    # empty, so the recurrence holds with the 0-extension and gets flagged
    out = verify_recurrence(CountParams(4, 4, 4, 3, REGULAR), 12, 12)
    assert out.ok
    assert out.extension_used


def test_recurrence_sweep_small_grid():
    for k in (2, 3):
        for d in range(1, k + 1):
            for s in range(d):
                for a in range(1, k + 1):
                    for flavor in (REGULAR, OVER):
                        out = verify_recurrence(CountParams(k, a, d, s, flavor), 10, 10)
                        assert out.ok, (k, a, d, s, flavor, out)


def test_equation_terms_hold_on_the_enumerator():
    # the one definition of the functional equation's terms, checked on the
    # brute-force enumerator instead of the DP tables: the count at (a, s)
    # minus the count at (a-1, (s+1) mod d) is the sum over the terms (j, e)
    # of the count at (e, 0) with m - j parts of weight n - m
    n_max = 8
    for flavor in (REGULAR, OVER):
        solutions = [list(iter_freq_solutions(n, flavor)) for n in range(n_max + 1)]

        @functools.cache
        def by_parts(k, a, d, s, n):
            cp = CountParams(k, a, d, s, flavor)
            counts = [0] * (n + 1)
            for sol in solutions[n]:
                if satisfies_mult_conditions(sol, cp):
                    counts[sol.num_parts] += 1
            return counts

        def count(k, a, d, s, m, n):
            if a <= 0 or not 0 <= m <= n:
                return 0
            return by_parts(k, a, d, s, n)[m]

        for k in (2, 3, 4):
            for d in range(1, k + 1):
                for s in range(d):
                    for a in range(1, k + 1):
                        terms = _equation_terms(k, a, s, flavor)
                        for n in range(n_max + 1):
                            for m in range(n + 1):
                                lhs = count(k, a, d, s, m, n)
                                lhs -= count(k, a - 1, d, (s + 1) % d, m, n)
                                rhs = sum(count(k, e, d, 0, m - j, n - m) for j, e in terms)
                                assert lhs == rhs, (flavor, k, a, d, s, m, n)


def reference_verify_recurrence(cp, m_max, n_max):
    """The per-coefficient recurrence sweep: every counter read through
    count_mult, one (m, n) at a time, n-major; the oracle for the row-level
    verify_recurrence."""
    k, a, d, s, flavor = cp.k, cp.a, cp.d, cp.s, cp.flavor
    flags = {}

    def counter(a2, s2, m, n):
        if m < 0 or n < 0:
            return 0
        if a2 < 0:
            flags["extension"] = True
            return 0
        if a2 == 0:
            return 0
        return counting.count_mult(CountParams(k, a2, d, s2 % d, flavor), m, n)

    referenced = [(a, s), (a - 1, s + 1), (k - a + 1 - s, 0)]
    if cp.is_over:
        referenced.append((k - a - s, 0))
    for a2, s2 in referenced:
        if a2 > 0:
            counting.count_table(CountParams(k, a2, d, s2 % d, flavor), max(m_max, n_max))
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            lhs = counter(a, s, m, n)
            rhs = counter(a - 1, s + 1, m, n) + counter(k - a + 1 - s, 0, m - a + 1, n - m)
            if cp.is_over:
                rhs += counter(k - a - s, 0, m - a, n - m)
            if lhs != rhs:
                return RecurrenceOutcome(False, (m, n, lhs, rhs), "extension" in flags)
    return RecurrenceOutcome(True, None, "extension" in flags)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return ("DomainError", str(exc))


@settings(max_examples=80, deadline=None)
@given(count_params(), st.integers(0, 10), st.integers(0, 10))
def test_recurrence_rows_match_per_coefficient_sweep(cp, m_max, n_max):
    # a = 0 included: with s = 0 the stripped index is k + 1, which both
    # sweeps reject with the same DomainError
    assert outcome_or_error(verify_recurrence, cp, m_max, n_max) == outcome_or_error(
        reference_verify_recurrence, cp, m_max, n_max
    )


corruptions = st.lists(
    st.tuples(
        st.integers(0, 3), st.integers(0, 10), st.integers(0, 10), st.sampled_from((1, -1))
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(count_params(), st.integers(0, 10), st.integers(0, 10), corruptions)
# the stripped index of (4, 4, 4, 3) is negative and first read at m = n = 3:
# a mismatch at n = 2 stops the sweep before that read, one at n = 4 after it
@example(CountParams(4, 4, 4, 3, REGULAR), 10, 10, [(0, 1, 2, 1)])
@example(CountParams(4, 4, 4, 3, REGULAR), 10, 10, [(0, 1, 4, 1)])
# two mismatches at one n: the sweep reports the lower m
@example(CountParams(3, 2, 2, 1, REGULAR), 10, 10, [(0, 3, 5, 1), (0, 1, 5, -1)])
def test_recurrence_mismatch_matches_per_coefficient_sweep(cp, m_max, n_max, corruptions):
    # entries of the tables the sweep reads are corrupted, so that the
    # mismatch path runs; an entry with m > n is structurally zero and never
    # read by the per-coefficient sweep, so each corruption keeps m <= n
    k, a, d, s, flavor = cp.k, cp.a, cp.d, cp.s, cp.flavor
    targets = [(a, s), (a - 1, s + 1), (k - a + 1 - s, 0), (k - a - s, 0)]
    plan = {}
    for which, m, n, delta in corruptions:
        a2, s2 = targets[which]
        plan.setdefault((k, a2, d, s2 % d, flavor), []).append((min(m, n), max(m, n), delta))
    real = counting.count_table
    corrupted = {}

    def corrupt_table(cp2, n_max2):
        table = real(cp2, n_max2)
        key = (cp2.k, cp2.a, cp2.d, cp2.s, cp2.flavor)
        if key not in plan:
            return table
        held = corrupted.get((key, len(table)))
        if held is None:
            held = corrupted[key, len(table)] = [list(row) for row in table]
            for m, n, delta in plan[key]:
                if n < len(table):
                    held[m][n] += delta
        return held

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "count_table", corrupt_table)
        assert outcome_or_error(verify_recurrence, cp, m_max, n_max) == outcome_or_error(
            reference_verify_recurrence, cp, m_max, n_max
        )


def test_recurrence_check_reads_each_table_once(monkeypatch):
    calls = []
    real = counting.count_table

    def counted(cp, n_max):
        calls.append(cp)
        return real(cp, n_max)

    def no_count_mult(cp, m, n):
        raise AssertionError("the recurrence check read a single coefficient")

    monkeypatch.setattr(counting, "count_table", counted)
    monkeypatch.setattr(counting, "count_mult", no_count_mult)
    for cp in (CountParams(3, 2, 2, 1, OVER), CountParams(4, 4, 4, 3, REGULAR)):
        calls.clear()
        assert check_recurrences(cp, 12, 12).status == "pass"
        assert 1 <= len(calls) <= 4


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def test_min_admissible_weight_small_cases():
    # k = 2, a = 2: windows < 2 force distinct non-consecutive parts with at
    # most one 1: p parts cost at least 1 + 3 + 5 + ... = p^2
    for p in range(5):
        assert min_admissible_weight(2, 2, REGULAR, p) == p * p
    # brute-force agreement on a couple of over cases
    for k, a, p in ((3, 3, 4), (4, 4, 5)):
        best = min(
            (
                sol.weight
                for n in range(0, 26)
                for sol in iter_freq_solutions(n, OVER)
                if sol.num_parts == p
                and satisfies_mult_conditions(sol, CountParams(k, a, 1, 0, OVER))
            ),
            default=None,
        )
        assert best == min_admissible_weight(k, a, OVER, p)


def test_capped_min_admissible_weight_is_min_of_weight_and_cap():
    cases = 0
    for k in range(2, 7):
        for a in range(1, k + 1):
            for flavor in (REGULAR, OVER):
                for parts in range(14):
                    weight = min_admissible_weight(k, a, flavor, parts)
                    for cap in (0, 1, 7, weight, weight + 1, 60):
                        got = min_admissible_weight(k, a, flavor, parts, cap)
                        assert got == min(weight, cap), (k, a, flavor, parts, cap)
                        cases += 1
    assert cases == 3360


def test_x_one_bounds_run_the_weight_dp_once_per_argument():
    # the x-one grid (criteria 07/08); gf-match never asks for the bound
    config = SuiteConfig(
        checks=("product-eval",), ks=(2, 3, 4), ds=(1, 2, 3, 4), trunc_order=40, x_order=10
    )
    min_admissible_weight.cache_clear()
    run_suite(config)
    info = min_admissible_weight.cache_info()
    assert (info.misses, info.hits + info.misses) == (18, 51)


def test_count_table_csv():
    buf = io.StringIO()
    rows = write_count_table_csv(buf, CountParams(2, 2, 1, 0), 4, 6)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,a,d,s,flavor,m,n,count"
    assert rows == len(lines) - 1
    assert "2,2,1,0,regular,1,4,1" in lines  # the partition "4"


def test_params_validation():
    with pytest.raises(DomainError):
        CountParams(1, 1, 1, 0)
    with pytest.raises(DomainError):
        CountParams(3, 1, 4, 0)
    with pytest.raises(DomainError):
        CountParams(3, 1, 2, 2)
    with pytest.raises(DomainError):
        CountParams(3, 4, 2, 1)
    with pytest.raises(DomainError):
        CountParams(3, 1, 2, 1, "weird")
