import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from graypool import (
    CombinePreconditionError,
    ConstructionError,
    GrayCode,
    InfeasibleError,
    apply_row_permutation,
    balance_of,
    build_maximal,
    combine_pair,
    flip_complement,
    length_bound,
    rcbba,
    rcbba_detailed,
    validate,
)
from graypool.codes import _set_bits, mask_from_indices
from graypool.recombine import (
    _fresh_superset,
    _maximal_base,
    _maximal_with_closing,
    _pool_table,
    _unions,
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
    with pytest.raises(CombinePreconditionError, match="subset"):
        combine_pair(code_5_1_5, reordered)


def test_combine_pair_checks_union_freshness():
    light = GrayCode.from_index_sets(4, 1, [(2,), (3,), (1,)])
    heavy = GrayCode.from_index_sets(4, 2, [(1, 3), (3, 4), (2, 4)])
    # The joining union {1,3} duplicates a consecutive union of the light code.
    with pytest.raises(CombinePreconditionError, match="union"):
        combine_pair(light, heavy)


def test_combine_pair_checks_shapes(code_5_1_5, code_5_2_10):
    with pytest.raises(CombinePreconditionError, match="weights"):
        combine_pair(code_5_2_10, code_5_2_10)
    with pytest.raises(CombinePreconditionError, match="pool counts"):
        combine_pair(code_5_1_5, GrayCode(6, 2, code_5_2_10.masks))


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
    return _fresh_superset(code.m, code.masks[-1], set(_unions(code)))


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
    path = _unions(code_5_1_5) + [closing]
    flipped = flip_complement(code_5_1_5, closing)
    full = (1 << 5) - 1
    assert [full ^ x for x in flipped.masks] == path


def test_flip_complement_rejects_bad_closing(code_5_1_5):
    closing = closing_union(code_5_1_5)
    for bad, message in [
        (mask_from_indices((1, 2, 3), 5), "must have weight 2"),
        (mask_from_indices((1, 2), 5), "must contain the last address"),
        (code_5_1_5.masks[-1] | 1 << 5, "out of range for m=5"),
        (_unions(code_5_1_5)[-1], "duplicates a consecutive union"),
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
    # The block lengths are pinned to pool targets, so the closing regime is
    # left needing 6 addresses where only 5 fit; the run must fail, not
    # return a short code.
    with pytest.raises(ConstructionError):
        rcbba(6, 2, 15, budget=10**5)


def test_rcbba_degenerate_regimes():
    narrow = rcbba(4, 2, 5, seed=1)  # m <= 2r: one targeted search
    assert validate(narrow).is_valid and narrow.n == 5
    chain = rcbba(7, 1, 6, seed=1)  # weight 1 has no lighter blocks
    assert validate(chain).is_valid and chain.n == 6
    tiny = rcbba(9, 2, 3, seed=1)  # n*r < m starves the residuals
    assert validate(tiny).is_valid and tiny.n == 3


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
        assert closing not in _unions(code)
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


def test_build_maximal_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_maximal(3, 3)
    with pytest.raises(ValueError):
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
