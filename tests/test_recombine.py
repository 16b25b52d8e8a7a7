import importlib
import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import prod

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import BBA_GRID
from graypool import (
    BudgetExhaustedError,
    CombinationTrace,
    ConstructionError,
    GrayCode,
    InfeasibleError,
    NoJoiningAddressError,
    apply_row_permutation,
    balance_of,
    balance_target,
    bba,
    build_maximal,
    combine_pair,
    flip_complement,
    length_bound,
    rcbba,
    rcbba_detailed,
    validate,
)
from graypool.bba import SearchBudget, _construct_masks
from graypool.codes import _set_bits, _unions, mask_from_indices
from graypool.recombine import (
    _RecursiveCombiner,
    _closing_width,
    _maximal_base,
    _maximal_by_flip,
    _maximal_with_closing,
    _pool_table,
)


def test_combine_pair_reproduces_known_matrix(code_5_1_5, code_5_2_10, code_6_2_15):
    combined = combine_pair(code_5_1_5, code_5_2_10)
    assert combined == code_6_2_15
    report = validate(combined)
    assert report.is_valid
    assert report.meets_bound
    assert report.balance.deviation == 0


def test_combine_pair_equals_augmented_concatenation(code_5_1_5, code_5_2_10):
    # The light code gains an all-one sixth row, the heavy one an all-zero row.
    combined = combine_pair(code_5_1_5, code_5_2_10)
    plus = tuple(x | 1 << 5 for x in code_5_1_5.masks)
    assert combined == GrayCode(6, 2, plus + code_5_2_10.masks)


def test_combine_pair_checks_subset_condition(code_5_1_5, code_5_2_10):
    reordered = GrayCode(5, 2, code_5_2_10.masks[::-1])
    with pytest.raises(ValueError, match="subset"):
        combine_pair(code_5_1_5, reordered)


def test_combine_pair_checks_union_freshness():
    light = GrayCode.from_index_sets(4, 1, [(2,), (3,), (1,)])
    heavy = GrayCode.from_index_sets(4, 2, [(1, 3), (3, 4), (2, 4)])
    # The joining union {1,3} duplicates a consecutive union of the light code.
    with pytest.raises(ValueError, match="union"):
        combine_pair(light, heavy)


def test_combine_pair_checks_shapes(code_5_1_5, code_5_2_10):
    with pytest.raises(ValueError, match="weights"):
        combine_pair(code_5_2_10, code_5_2_10)
    with pytest.raises(ValueError, match="pool counts"):
        combine_pair(code_5_1_5, GrayCode(6, 2, code_5_2_10.masks))
    with pytest.raises(ValueError, match="requires two non-empty codes"):
        combine_pair(GrayCode(5, 1, ()), code_5_2_10)


def test_row_permutation_identity_and_reversal(code_5_2_10):
    assert apply_row_permutation(code_5_2_10, [1, 2, 3, 4, 5]) == code_5_2_10
    reversed_code = apply_row_permutation(code_5_2_10, [5, 4, 3, 2, 1])
    assert validate(reversed_code).is_valid
    assert reversed_code != code_5_2_10


def test_row_permutation_moves_balance_counts():
    code = GrayCode.from_index_sets(4, 2, [(1, 2), (1, 3), (1, 4)])
    permuted = apply_row_permutation(code, [4, 1, 2, 3])
    assert balance_of(code).counts == (3, 1, 1, 1)
    assert balance_of(permuted).counts == (1, 1, 1, 3)


def test_row_permutation_rejects_non_bijection(code_5_2_10):
    with pytest.raises(ValueError):
        apply_row_permutation(code_5_2_10, [1, 1, 2, 3, 4])


def closing_union(code):
    """The smallest weight-(r+1) superset of the last address that is not a union."""
    last, used = code.masks[-1], set(_unions(code.masks))
    return next((u for z in range(code.m) if (u := last | 1 << z) != last and u not in used), None)


def test_closing_union_of_full_length_code_is_exhausted(code_5_2_10):
    # All three weight-3 supersets of the last address already occur as unions.
    assert closing_union(code_5_2_10) is None


def test_closing_union_prefers_smallest_index_set():
    single = GrayCode.from_index_sets(5, 2, [(2, 4)])
    assert closing_union(single) == mask_from_indices((1, 2, 4), 5)


def test_closing_union_skips_used_unions(code_5_1_5):
    assert closing_union(code_5_1_5) == mask_from_indices((1, 3), 5)
    # {1,2} is the code's one union, so {2,3} comes first.
    pair = GrayCode.from_index_sets(5, 1, [(1,), (2,)])
    assert closing_union(pair) == mask_from_indices((2, 3), 5)


def test_flip_complement_builds_heavy_code(code_5_1_5):
    flipped = flip_complement(code_5_1_5, closing_union(code_5_1_5))
    assert (flipped.m, flipped.r, flipped.n) == (5, 3, 5)
    assert validate(flipped).is_valid
    assert all(x.bit_count() == 3 for x in flipped.masks)


def test_flip_complement_is_an_involution_on_the_path(code_5_1_5):
    closing = closing_union(code_5_1_5)
    path = _unions(code_5_1_5.masks) + [closing]
    flipped = flip_complement(code_5_1_5, closing)
    full = (1 << 5) - 1
    assert [full ^ x for x in flipped.masks] == path


def test_flip_complement_rejects_bad_closing(code_5_1_5):
    closing = closing_union(code_5_1_5)
    for bad, message in [
        (mask_from_indices((1, 2, 3), 5), "must have weight 2"),
        (mask_from_indices((1, 2), 5), "must contain the last address"),
        (code_5_1_5.masks[-1] | 1 << 5, "out of range for m=5"),
        (_unions(code_5_1_5.masks)[-1], "duplicates a consecutive union"),
    ]:
        with pytest.raises(ValueError, match=message):
            flip_complement(code_5_1_5, bad)
    with pytest.raises(ValueError, match="empty code"):
        flip_complement(GrayCode(5, 1, ()), closing)


def test_rcbba_constructs_valid_code_with_trace():
    code, trace = rcbba_detailed(6, 2, 12, seed=0)
    report = validate(code)
    assert report.is_valid and code.n == 12
    # First block is placed without relabeling, so it fills the last pool.
    assert trace.consumed_pools[0] == 6
    assert sum(trace.component_lengths) == 12
    assert trace.component_lengths[-1] == 12 - sum(trace.component_lengths[:-1])
    assert trace.deviation_bound is not None
    assert balance_of(code).deviation <= trace.deviation_bound


def test_rcbba_rejects_overlong_request():
    with pytest.raises(InfeasibleError):
        rcbba(5, 2, 11)


def test_rcbba_near_bound_requests_can_exhaust():
    # At the length bound no closing width narrower than m fits the
    # remaining length, so one search over all six pools builds the code.
    code, trace = rcbba_detailed(6, 2, 15, budget=10**5)
    assert validate(code).is_valid and code.n == 15
    assert trace.consumed_pools == () and trace.component_lengths == (15,)
    # A budget too small for that search fails; it never returns a short code.
    with pytest.raises(BudgetExhaustedError):
        rcbba(6, 2, 15, budget=100)


@pytest.mark.parametrize("m", range(2, 8))
def test_every_request_within_the_bound_builds(m):
    # The bound alone decides "infeasible": below it bba always finds a code,
    # and rcbba fails only by running out of joining addresses or budget.
    for r in range(1, m):
        for n in range(1, length_bound(m, r) + 1):
            for seed in range(3):
                assert bba(m, r, n, seed=seed, budget=10**6).n == n
            for seed in range(2):
                try:
                    assert rcbba(m, r, n, seed=seed, budget=10**6).n == n
                except (NoJoiningAddressError, BudgetExhaustedError):
                    pass


def test_rcbba_degenerate_regimes():
    narrow = rcbba(4, 2, 5, seed=1)  # m <= 2r: one targeted search
    assert validate(narrow).is_valid and narrow.n == 5
    chain = rcbba(7, 1, 6, seed=1)  # weight 1 has no lighter blocks
    assert validate(chain).is_valid and chain.n == 6
    tiny = rcbba(9, 2, 3, seed=1)  # n*r < m starves the residuals
    assert validate(tiny).is_valid and tiny.n == 3


def _one_search(m, r, n, seed, budget):
    """A code built by one balance-targeted search towards ``balance_target``,
    traced as a single closing block, or the error that ends the search."""
    target = balance_target(m, r, n)
    try:
        masks, _ = _construct_masks(
            m, r, n, None, target, random.Random(seed), SearchBudget(budget)
        )
    except ConstructionError as exc:
        return type(exc), str(exc)
    code = GrayCode(m, r, masks)
    return code, CombinationTrace((n,), (), target, balance_of(code).counts)


_DEGENERATE = [
    (m, r, n)
    for m in range(2, 9)
    for r in range(1, m)
    for n in sorted({1, 2, length_bound(m, r) // 2, length_bound(m, r)} - {0})
    if r == 1 or m <= 2 * r or n * r < m
]


@pytest.mark.parametrize("seed", range(3))
def test_rcbba_builds_degenerate_requests_by_one_search(seed):
    # r = 1, m <= 2r and n*r < m leave no iterative block: the combiner's
    # closing search spans all m pools and must draw, search and trace
    # exactly as one search over the whole request would.
    budget = 2 * 10**4
    for m, r, n in _DEGENERATE:
        try:
            outcome = rcbba_detailed(m, r, n, seed=seed, budget=budget)
        except ConstructionError as exc:
            outcome = type(exc), str(exc)
        assert outcome == _one_search(m, r, n, seed, budget), (m, r, n)


class _CountingCombiner(_RecursiveCombiner):
    """Counts the placed blocks a run takes off again."""

    removed = 0

    def _remove_block(self, charged):
        self.removed += 1
        super()._remove_block(charged)


# How many placed blocks these runs take off again; the other cases below
# take none off.
_BACKTRACKS = {(13, 3, 100, 4): 14, (14, 4, 70, 2): 12}


@pytest.mark.parametrize(
    "m,r,n,seed",
    # (12, 4, 350) closes at 2r+1, (14, 3, 150) closes without a closing
    # block, (7, 1, 6) places none.
    [(13, 3, 100, 4), (14, 4, 70, 2), (12, 4, 350, 0), (14, 3, 150, 4), (7, 1, 6, 1)],
)
def test_combiner_residuals_are_the_target_less_the_placed_blocks(m, r, n, seed):
    # Each placed block is charged to the residuals through its pool table,
    # all-one row included, and refunded when it is taken off again; the
    # closing block is not charged. So a consumed pool ends at zero.
    target = balance_target(m, r, n)
    builder = _CountingCombiner(m, r, n, target, random.Random(seed), SearchBudget(10**5))
    masks = builder.run()
    assert builder.removed == _BACKTRACKS.get((m, r, n, seed), 0)
    placed = GrayCode(m, r, masks[: sum(builder.lengths[: len(builder.consumed)])])
    assert builder.w_res == [t - c for t, c in zip(target, balance_of(placed).counts)]
    assert all(builder.w_res[pool] == 0 for pool in builder.consumed)


def test_every_union_holds_its_blocks_consumed_pool():
    # Why the combiner needs no global union set: every union inside
    # iterative block j, and the join leaving it, holds the pool p_j that
    # the block consumes, and no later address holds p_j. So unions of
    # different blocks differ, and a join can only repeat its own block's.
    built = 0
    for m, r, n in BBA_GRID:
        for seed in range(3):
            try:
                code, trace = rcbba_detailed(m, r, n, seed=seed, budget=10**5)
            except ConstructionError:
                continue
            built += 1
            ends = list(accumulate(trace.component_lengths))
            for start, end, pool in zip([0, *ends], ends, trace.consumed_pools):
                bit = 1 << (pool - 1)
                unions = _unions(code.masks[start : end + 1])
                assert all(u & bit for u in unions), (m, r, n, seed, pool)
                assert not any(x & bit for x in code.masks[end:]), (m, r, n, seed, pool)
    assert built == 3 * len(BBA_GRID)


# The closing width of the design workload's requests: the long codes keep
# 2r, the two nearest the bound close at m, and these grid points at 2r+1.
# Every other bba grid point closes at 2r.
_DESIGN_WIDTHS = {
    (18, 6, 3000): 12, (18, 6, 10000): 12, (20, 6, 8000): 12, (16, 5, 2000): 10,
    (14, 3, 350): 14, (14, 4, 950): 14,
    (10, 4, 150): 9, (12, 3, 150): 7, (12, 4, 350): 9, (14, 4, 750): 9,
}


def test_closing_width_of_the_design_requests():
    widths = {(m, r, n): 2 * r for m, r, n in BBA_GRID} | _DESIGN_WIDTHS
    assert {request: _closing_width(*request) for request in widths} == widths


def _narrowest_fitting_width(m, r, n):
    """The closing-width rule as stated: m for the requests with no iterative
    block, else the narrowest w >= 2r whose remaining-length estimate
    n*prod_{j=w+1..m}(1 - r/j) is at most 4/5 of its length bound, else m."""
    if r == 1 or m <= 2 * r or n * r < m:
        return m
    for w in range(2 * r, m + 1):
        estimate = n * prod(Fraction(j - r, j) for j in range(w + 1, m + 1))
        if estimate <= Fraction(4, 5) * length_bound(w, r):
            return w
    return m


@settings(max_examples=300)
@given(st.data())
def test_closing_width_is_the_narrowest_that_fits(data):
    m = data.draw(st.integers(2, 30))
    # The second strategies favour m > 2r and n near the bound, where all
    # three widths occur.
    r = data.draw(st.integers(1, m - 1) | st.integers(1, max(1, (m - 1) // 2)))
    b = length_bound(m, r)
    n = data.draw(st.integers(1, b) | st.integers(max(1, b * 3 // 5), b))
    width = _closing_width(m, r, n)
    event({m: "m", 2 * r: "2r", 2 * r + 1: "2r+1"}[width])
    assert width == _narrowest_fitting_width(m, r, n)


# The largest deviation of rcbba's codes at seeds 0-2 on each grid point.
_GRID_MAX_DEVIATION = {
    (10, 4, 150): 6, (12, 3, 150): 4, (12, 4, 150): 5, (12, 4, 350): 6,
    (14, 3, 150): 22, (14, 3, 350): 6, (14, 4, 150): 14, (14, 4, 350): 4,
    (14, 4, 550): 4, (14, 4, 750): 6, (14, 4, 950): 10,
}


def test_rcbba_grid_deviation_is_pinned():
    deviations = {
        request: max(balance_of(rcbba(*request, seed=seed)).deviation for seed in range(3))
        for request in BBA_GRID
    }
    assert deviations == _GRID_MAX_DEVIATION


class _GlobalUnionCombiner(_RecursiveCombiner):
    """Reference combiner that keeps a set of every union of the code: a
    join is refused if it repeats any union placed so far, and a placed
    block whose unions repeat one is an internal error."""

    def __init__(self, *args):
        super().__init__(*args)
        self.union_set: set[int] = set()
        self.added: list[list[int]] = []

    def _place_block(self, width, join_mask, comp_len):
        start = len(self.masks)
        charged = super()._place_block(width, join_mask, comp_len)
        self.added.append(self._push_masks(start))
        return charged

    def _remove_block(self, charged):
        super()._remove_block(charged)
        self.union_set.difference_update(self.added.pop())

    def _final(self, width, join_mask):
        start = len(self.masks)
        done = super()._final(width, join_mask)
        if done:
            self._push_masks(start)
        return done

    def _join_candidates(self, width):
        last = self.masks[-1]
        core = last & ~(1 << self.consumed[-1])
        cap = min(self.n - len(self.masks), length_bound(width - 1, self.r - 1))
        out = []
        for z in _set_bits(self.active & ~last):
            candidate = core | 1 << z
            if (last | candidate) in self.union_set:
                continue
            next_len = self.w_res[candidate.bit_length() - 1]
            if width > self.final_width and not 1 <= next_len <= cap:
                continue
            out.append((candidate, next_len))
        out.sort(key=lambda t: -t[1])
        return out

    def _push_masks(self, start):
        """Record the unions of the masks from ``start`` on, and of the
        join into them."""
        joined = self.masks[max(start - 1, 0):]
        added = [a | b for a, b in zip(joined, joined[1:])]
        for u in added:
            if u in self.union_set:
                raise RuntimeError("internal error: duplicate union while combining")
            self.union_set.add(u)
        return added


def _combine(combiner, m, r, n, seed, budget):
    builder = combiner(m, r, n, balance_target(m, r, n), random.Random(seed), SearchBudget(budget))
    try:
        return builder.run(), builder.trace()
    except ConstructionError as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(st.data())
def test_block_local_join_check_matches_the_global_union_set(data):
    m = data.draw(st.integers(2, 10))
    r = data.draw(st.integers(1, m - 1))
    n = data.draw(st.integers(1, length_bound(m, r)))
    seed = data.draw(st.integers(0, 2**16))
    budget = data.draw(st.integers(10, 2 * 10**4))
    outcome = _combine(_RecursiveCombiner, m, r, n, seed, budget)
    event("built" if type(outcome[0]) is list else outcome[0].kind)
    assert outcome == _combine(_GlobalUnionCombiner, m, r, n, seed, budget)


def test_rcbba_is_deterministic():
    a = rcbba(12, 4, 150, seed=11)
    b = rcbba(12, 4, 150, seed=11)
    assert a == b


def test_rcbba_deviation_stays_within_trace_bound():
    code, trace = rcbba_detailed(18, 6, 1000, seed=0)
    assert validate(code).is_valid
    dev = balance_of(code).deviation
    assert dev <= trace.deviation_bound
    assert dev <= 8


def test_rcbba_trace_serializes():
    _, trace = rcbba_detailed(10, 4, 150, seed=0)
    obj = trace.to_json_dict()
    assert obj["component_lengths"] == list(trace.component_lengths)
    assert obj["deviation_bound"] == trace.deviation_bound


def test_rcbba_runs_that_close_early_skip_the_final_block():
    # With this seed the last iterative block lands exactly on the target
    # length, so no closing block runs and no deviation bound is available.
    code, trace = rcbba_detailed(14, 3, 150, seed=4)
    assert validate(code).is_valid and code.n == 150
    assert trace.deviation_bound is None
    assert sum(trace.component_lengths) == 150


def test_rcbba_every_prefix_is_a_valid_code():
    code, trace = rcbba_detailed(10, 4, 150, seed=3)
    cut = 0
    for length in trace.component_lengths:
        cut += length
        prefix = GrayCode(code.m, code.r, code.masks[:cut])
        assert validate(prefix).is_valid


def test_rcbba_consumed_pools_land_on_their_targets():
    # Each iterative block tops its consumed pool up to the near-uniform
    # target, so those pools end within one of the floored average.
    m, r, n = 12, 4, 350
    code, trace = rcbba_detailed(m, r, n, seed=0)
    counts = balance_of(code).counts
    floor_avg = (r * n) // m
    for pool in trace.consumed_pools:
        assert counts[pool - 1] in (floor_avg, floor_avg + 1)


@pytest.mark.parametrize(
    "m,r,expected_n",
    [
        (5, 2, 10), (6, 2, 15), (4, 2, 5), (5, 3, 6), (6, 3, 16), (3, 2, 2),
        # These ran out of the default budget while their bases were searched for.
        (9, 4, 126), (10, 4, 210), (11, 5, 462),
    ],
)
def test_build_maximal_meets_bound(m, r, expected_n):
    assert length_bound(m, r) == expected_n
    code = build_maximal(m, r, seed=0)
    report = validate(code)
    assert report.is_valid
    assert report.meets_bound
    assert code.n == expected_n


def test_build_maximal_full_enumeration_is_perfectly_balanced():
    assert balance_of(build_maximal(5, 2)).deviation == 0
    assert balance_of(build_maximal(6, 2)).deviation == 0


@settings(deadline=None)
@given(st.data())
def test_build_maximal_meets_its_definition(data):
    m = data.draw(st.integers(3, 12))
    r = data.draw(st.integers(1, m - 1))
    seed = data.draw(st.integers(0, 2**32))
    code = build_maximal(m, r, seed=seed)
    assert validate(code).is_valid and code.n == length_bound(m, r)
    if m >= 2 * r + 1:
        assert balance_of(code).deviation == 0
        again, closing = _maximal_with_closing(m, r, random.Random(seed))
        assert again.masks == code.masks
        assert closing & code.masks[-1] == code.masks[-1] and closing.bit_count() == r + 1
        assert closing not in _unions(code.masks)
    else:
        assert build_maximal(m, r, seed=seed).masks == code.masks


@pytest.mark.parametrize("r", range(1, 8))
def test_maximal_base_is_a_middle_levels_hamilton_cycle(r):
    # Every weight-r address appears once, and every weight-(r+1) union once,
    # counting the closing union that joins the last address to the first.
    m = 2 * r + 1
    code, closing = _maximal_base(m, r, random.Random(r))
    unions = [a | b for a, b in zip(code.masks, code.masks[1:])] + [closing]
    assert sorted(code.masks) == sorted(sum(1 << i for i in c) for c in combinations(range(m), r))
    assert sorted(unions) == sorted(sum(1 << i for i in c) for c in combinations(range(m), r + 1))
    assert closing == code.masks[-1] | code.masks[0]


_FLIPPED = [(m, r) for m in range(3, 15) for r in range(1, m) if r + 1 < m <= 2 * r]


@pytest.mark.parametrize("m,r", _FLIPPED)
def test_flip_source_first_address_has_a_fresh_superset(m, r):
    # The (m, s) flip source, s = m-r-1, starts with its singleton chain:
    # pool 0 and the top s-1 pools. Of that address's r+1 supersets only
    # the chain's first union and its closing union {0, m-s} are used, as
    # a union or as the closing union, so first | {2} is a fresh leading union.
    s = m - r - 1
    top = (1 << m) - (1 << (m - s + 1))
    for seed in range(3):
        src, tail = _maximal_with_closing(m, s, random.Random(seed))
        first = src.masks[0]
        assert first == 1 | top
        supersets = {first | 1 << z for z in range(m) if not first >> z & 1}
        used = supersets & (set(_unions(src.masks)) | {tail})
        assert len(supersets) == r + 1
        assert used == {first | 0b10, first | 1 << (m - s)}, (m, r, seed)
        # The flip leads with that union: its complement is the first address.
        flipped = _maximal_by_flip(m, r, random.Random(seed))
        assert flipped.masks[0] == (1 << m) - 1 ^ (first | 0b100)


def test_build_maximal_rejects_bad_parameters():
    # The same request check and message as bba and rcbba.
    with pytest.raises(ValueError, match=r"^weight must satisfy 1 <= r < m, got r=3, m=3$"):
        build_maximal(3, 3)
    with pytest.raises(ValueError, match=r"^weight must satisfy 1 <= r < m, got r=0, m=4$"):
        build_maximal(4, 0)


@given(st.data())
def test_pool_table_relabels_a_block_onto_the_active_pools(data):
    m = data.draw(st.integers(1, 10))
    active = data.draw(st.integers(0, (1 << m) - 1))
    width = active.bit_count()
    rows = list(range(width))
    pools = list(_set_bits(active))
    k = data.draw(st.integers(0, width))
    src = sum(1 << i for i in data.draw(st.permutations(rows))[:k])
    dst = sum(1 << i for i in data.draw(st.permutations(pools))[:k])
    table = _pool_table(src, dst, active, m)
    assert sorted(table) == list(range(m))
    assert [table[i] for i in _set_bits(src)] == list(_set_bits(dst))
    assert all(active >> table[i] & 1 for i in rows)
    assert not any(active >> table[i] & 1 for i in range(width, m))


# (4, 2) addresses that repeat one address: any builder returning them has
# broken, and validate rejects them. The package exports a function named
# bba, so the module is looked up by name.
_REPEATED = [0b0011, 0b0110, 0b0011]
# A (4, 2) search result that validate rejects (its second address has weight
# 3) but whose unions do not repeat, so the combiner's closing search appends
# it before validation, with made-up occupancy counts.
_OVERWEIGHT = ([0b0011, 0b0111], [2, 2, 1, 0])
_BBA = importlib.import_module("graypool.bba")
_RECOMBINE = importlib.import_module("graypool.recombine")


@pytest.mark.parametrize(
    "module, name, fake, build",
    [
        (_BBA, "_construct_masks", lambda *a: (_REPEATED, [2, 3, 1, 0]), lambda: bba(4, 2, 3)),
        # A valid path two addresses long, where ten were asked for.
        (_BBA, "_construct_masks", lambda *a: ([0b0011, 0b0101], [2, 1, 1, 0, 0, 0]),
         lambda: bba(6, 2, 10)),
        (_RECOMBINE, "_construct_masks", lambda *a: _OVERWEIGHT,
         lambda: rcbba_detailed(4, 2, 3)),
        (_RECOMBINE._RecursiveCombiner, "run", lambda self: _REPEATED,
         lambda: rcbba_detailed(6, 2, 12)),
        (_RECOMBINE, "_maximal_with_closing",
         lambda m, r, rng: (GrayCode(m, r, _REPEATED), 0), lambda: build_maximal(5, 2)),
        (_RECOMBINE, "_maximal_by_flip", lambda m, r, rng: GrayCode(m, r, _REPEATED),
         lambda: build_maximal(4, 2)),
    ],
    ids=["bba", "bba-short", "rcbba-degenerate", "rcbba-combiner", "maximal-closing",
         "maximal-flip"],
)
def test_constructions_refuse_a_code_that_fails_validation(monkeypatch, module, name, fake, build):
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(RuntimeError, match="^internal error: constructed code fails validation: "):
        build()
