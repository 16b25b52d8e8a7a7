import random
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import INVALID_CODES, small_valid_codes
from graypool import GrayCode, PoolDecoder, build_maximal, partition_items, rcbba
from graypool.codes import _set_bits
from graypool.decode import DecodeResult, _MaskLookup, _Plans


def test_exact_pair(code_5_2_10):
    result = PoolDecoder(code_5_2_10).decode({1, 2, 3})
    assert result.status == "exact-pair"
    assert result.pair == (1, 2)
    assert result.candidate_items == (1, 2)
    assert result.candidate_pairs == (1,)
    assert result.inferred_error_count == 0


def test_single_versus_dropped_pool_is_ambiguous(code_5_2_10):
    result = PoolDecoder(code_5_2_10).decode({2, 3})
    assert result.status == "ambiguous"
    assert result.single == 1
    assert result.candidate_pairs == (1, 4, 6)
    assert result.candidate_items == (1, 2, 4, 5, 6, 7)
    assert result.inferred_error_count == 0


def test_no_single_mode_reports_false_negative(code_5_2_10):
    result = PoolDecoder(code_5_2_10).decode({2, 3}, allow_single=False)
    assert result.status == "error-false-negative"
    assert result.single is None
    assert result.candidate_pairs == (1, 4, 6)
    assert result.candidate_items == (1, 2, 4, 5, 6, 7)
    assert result.inferred_error_count == 1


def test_too_many_pools_is_false_positive(code_5_2_10):
    result = PoolDecoder(code_5_2_10).decode({1, 2, 3, 4, 5})
    assert result.status == "error-false-positive"
    assert result.inferred_error_count == 2
    # Every pair's union sits inside the all-positive observation.
    assert result.candidate_pairs == tuple(range(1, 10))


def test_unmatched_exact_count_is_false_positive(code_5_2_10):
    # Weight r+1 but not a consecutive union: {1,3,5} is the one unused triple.
    result = PoolDecoder(code_5_2_10).decode({1, 3, 5})
    assert result.status == "error-false-positive"
    assert result.candidate_pairs == ()
    assert result.inferred_error_count == 1
    # Subsets of the observation that are addresses remain plausible singles.
    assert result.candidate_items == (2, 6, 9)


def test_empty_outcome_keeps_every_pair(code_5_2_10):
    result = PoolDecoder(code_5_2_10).decode(())
    assert result.status == "error-false-negative"
    assert result.candidate_pairs == tuple(range(1, 10))
    assert result.candidate_items == tuple(range(1, 11))
    assert result.inferred_error_count == 3


def test_exact_single_when_no_pair_superset():
    decoder = PoolDecoder(GrayCode.from_index_sets(6, 2, [(1, 2), (2, 3), (3, 4)]))
    result = decoder.decode({5, 6})
    assert result.status == "error-false-negative"
    result = decoder.decode({1, 2})
    assert result.status == "ambiguous"
    # {3,4} is the last address; its only union superset is {2,3,4}.
    result = decoder.decode({3, 4})
    assert result.single == 3
    assert result.candidate_pairs == (2,)


def test_out_of_range_pool_rejected(code_5_2_10):
    decoder = PoolDecoder(code_5_2_10)
    for pools in ({0, 1}, {6}, {-2}):
        with pytest.raises(ValueError, match="out of range 1..5"):
            decoder.decode(pools)


def test_result_serializes(code_5_2_10):
    obj = PoolDecoder(code_5_2_10).decode({1, 2, 3}).to_json_dict()
    assert obj["status"] == "exact-pair"
    assert obj["pair"] == [1, 2]
    assert obj["candidate_items"] == [1, 2]


def test_every_pair_round_trips(code_5_2_10):
    decoder = PoolDecoder(code_5_2_10)
    masks = list(code_5_2_10.bitmasks())
    for j in range(1, len(masks)):
        result = decoder.decode_mask(masks[j - 1] | masks[j])
        assert result.status == "exact-pair"
        assert result.pair == (j, j + 1)


def test_true_pair_survives_any_single_dropout(code_5_2_10):
    decoder = PoolDecoder(code_5_2_10)
    masks = list(code_5_2_10.bitmasks())
    for j in range(1, len(masks)):
        union = masks[j - 1] | masks[j]
        for p in range(5):
            if not (union >> p) & 1:
                continue
            result = decoder.decode_mask(union ^ (1 << p))
            assert j in result.candidate_pairs


def test_double_dropout_keeps_true_pair(code_5_2_10):
    decoder = PoolDecoder(code_5_2_10)
    masks = list(code_5_2_10.bitmasks())
    for j in range(1, len(masks)):
        union = masks[j - 1] | masks[j]
        pools = [p for p in range(5) if (union >> p) & 1]
        for dropped in combinations(pools, 2):
            observed = union
            for p in dropped:
                observed ^= 1 << p
            result = decoder.decode_mask(observed)
            assert result.status == "error-false-negative"
            assert result.inferred_error_count == 2
            assert j in result.candidate_pairs


def test_partition_examples():
    assert partition_items(10, 3) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    assert partition_items(7, 3) == [(1, 2), (3, 4), (5, 6), (7, 7)]
    assert partition_items(5, 2) == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]


def test_partition_rejects_bad_arguments():
    with pytest.raises(ValueError):
        partition_items(10, 1)
    with pytest.raises(ValueError):
        partition_items(0, 3)


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=2, max_value=12),
)
def test_partition_properties(n_items, d):
    groups = partition_items(n_items, d)
    assert len(groups) == -(-n_items // (d - 1))
    assert groups[0][0] == 1 and groups[-1][1] == n_items
    sizes = [b - a + 1 for a, b in groups]
    assert all(1 <= s <= d - 1 for s in sizes)
    assert max(sizes) - min(sizes) <= 1
    for (_, prev_end), (start, _) in zip(groups, groups[1:]):
        assert start == prev_end + 1


def scan_decode(code: GrayCode, pmask: int, allow_single: bool) -> DecodeResult:
    """Reference decoder: scans every union and address for each outcome."""
    r = code.r
    addresses = list(code.bitmasks())
    unions = [a | b for a, b in zip(addresses, addresses[1:])]
    union_index = {u: j for j, u in enumerate(unions, 1)}
    addr_index = {a: j for j, a in enumerate(addresses, 1)}
    k = pmask.bit_count()
    if k == r + 1 and pmask in union_index:
        j = union_index[pmask]
        return DecodeResult("exact-pair", (j, j + 1), None, 0, (j, j + 1), (j,))
    if k >= r + 1:
        pairs = [j for j, u in enumerate(unions, 1) if u & ~pmask == 0]
        items = {i for j in pairs for i in (j, j + 1)}
        if allow_single:
            items.update(j for j, a in enumerate(addresses, 1) if a & ~pmask == 0)
        return DecodeResult(
            "error-false-positive", None, None, max(1, k - (r + 1)),
            tuple(sorted(items)), tuple(pairs),
        )
    pairs = [j for j, u in enumerate(unions, 1) if pmask & ~u == 0]
    items = {i for j in pairs for i in (j, j + 1)}
    single = None
    if allow_single:
        items.update(j for j, a in enumerate(addresses, 1) if pmask & ~a == 0)
        if k == r:
            single = addr_index.get(pmask)
    if single is not None:
        if pairs:
            return DecodeResult("ambiguous", None, single, 0, tuple(sorted(items)), tuple(pairs))
        return DecodeResult("exact-single", None, single, 0, (single,), ())
    return DecodeResult(
        "error-false-negative", None, None, r + 1 - k, tuple(sorted(items)), tuple(pairs)
    )


def scan_near(lookup, pmask: int, spare: int = 0) -> list[int]:
    """Reference for ``_MaskLookup.near`` and ``find``: scans every mask of
    the lookup for at most max(0, w-k) + spare pools outside the k lit ones."""
    outside = max(0, lookup.w - pmask.bit_count()) + spare
    return [j for j, x in enumerate(lookup.masks, 1) if (x & ~pmask).bit_count() <= outside]


def spares(lookup, pmask: int) -> list[int]:
    """The spare pool counts ``find`` takes for ``pmask``: 1 only when at
    most w pools are lit."""
    return [0, 1] if pmask.bit_count() <= lookup.w else [0]


@settings(max_examples=300, deadline=None)
@given(small_valid_codes(), st.data())
def test_indexed_decode_matches_scan(code, data):
    # Outcomes may light pools above m; they count toward k but match nothing.
    pmask = data.draw(st.integers(0, (1 << (code.m + 2)) - 1), label="pmask")
    decoder = PoolDecoder(code)
    for allow_single in (True, False):
        assert decoder.decode_mask(pmask, allow_single) == scan_decode(code, pmask, allow_single)
    for lookup in (decoder.union_lookup, decoder.addr_lookup):
        assert lookup.near(pmask) == scan_near(lookup, pmask)
        for spare in spares(lookup, pmask):
            expected = scan_near(lookup, pmask, spare)
            found = lookup.find(pmask, spare)
            event("columns" if type(found) is int else "enumerated")
            assert found == (expected if type(found) is list else sum(1 << j for j in expected))


@settings(max_examples=300, deadline=None)
@given(small_valid_codes(), st.data())
def test_near_rule_is_superset_after_dropouts_and_subset_after_extra_pools(code, data):
    # A mask of weight w fits k observed pools when at most max(0, w-k) of its
    # pools lie outside them. Pools above m match no mask.
    pmask = data.draw(st.integers(0, (1 << (code.m + 2)) - 1), label="pmask")
    k = pmask.bit_count()
    decoder = PoolDecoder(code)
    for lookup in (decoder.union_lookup, decoder.addr_lookup):
        found = lookup.near(pmask)
        if k <= lookup.w:
            assert found == [j for j, x in enumerate(lookup.masks, 1) if not pmask & ~x]
        if k >= lookup.w:
            assert found == [j for j, x in enumerate(lookup.masks, 1) if not x & ~pmask]


@settings(max_examples=150, deadline=None)
@given(small_valid_codes(), st.data())
def test_shared_exact_pairs_match_scan_on_repeated_outcomes(code, data):
    # One decoder per stream. Unions repeat; addresses give singles and
    # ambiguous outcomes; a union with flipped pools gives an error outcome,
    # as does the empty outcome (a code may have no pair).
    addresses = [0, *code.bitmasks()]
    unions = [0, *(a | b for a, b in zip(addresses[1:], addresses[2:]))]
    flipped = st.tuples(st.sampled_from(unions), st.integers(1, (1 << code.m) - 1)).map(
        lambda pair: pair[0] ^ pair[1]
    )
    outcome = st.one_of(st.sampled_from(unions), st.sampled_from(addresses), flipped)
    stream = data.draw(st.lists(outcome, min_size=1, max_size=20), label="stream")
    decoder = PoolDecoder(code)
    shared = {}
    for pmask in stream + stream:
        for allow_single in (True, False, True, False):
            result = decoder.decode_mask(pmask, allow_single)
            assert result == scan_decode(code, pmask, allow_single)
            if result.status == "exact-pair":
                assert shared.setdefault(pmask, result) is result
    assert decoder._exact == shared


def test_exact_memo_is_lazy_and_holds_exact_pairs_only(code_5_2_10):
    decoder = PoolDecoder(code_5_2_10)
    assert decoder._exact == {}
    first = decoder.decode({1, 2, 3})
    assert decoder._exact == {0b00111: first}
    assert first.pair is first.candidate_items
    # Every outcome over the five pools and two more: singles, ambiguous
    # and error outcomes leave the memo as it was.
    for pmask in range(1 << 7):
        for allow_single in (True, False):
            decoder.decode_mask(pmask, allow_single)
    assert set(decoder._exact) == set(decoder.union_masks)
    assert len(decoder._exact) <= code_5_2_10.n - 1
    assert {result.status for result in decoder._exact.values()} == {"exact-pair"}
    assert decoder.decode({1, 2, 3}) is first
    with pytest.raises(FrozenInstanceError):
        first.pair = (2, 3)
    expected = first.to_json_dict()
    payload = first.to_json_dict()
    payload["pair"].append(3)
    payload["candidate_items"][0] = 9
    payload["candidate_pairs"].clear()
    assert decoder.decode({1, 2, 3}).to_json_dict() == expected == {
        "status": "exact-pair", "pair": [1, 2], "single": None, "inferred_error_count": 0,
        "candidate_items": [1, 2], "candidate_pairs": [1],
    }


@pytest.mark.parametrize("pmask", [1.0, 7.0, "7", None, True, False])
def test_decode_mask_on_a_memo_miss_rejects_a_non_int(code_5_2_10, pmask):
    # decode_mask takes ints only, and a bool is not one; a fresh decoder has
    # nothing memoised, so the mask reaches the type check instead of failing
    # on an int method or decoding True and False as masks 1 and 0.
    with pytest.raises(TypeError, match="decode_mask takes an int mask"):
        PoolDecoder(code_5_2_10).decode_mask(pmask)


def test_decode_mask_on_a_memo_miss_rejects_a_negative_mask(rcbba_10_3_60):
    # A negative int has no pools to decode, and on pool columns its set
    # bits would never run out.
    with pytest.raises(ValueError, match="decode_mask takes a non-negative mask, got -1"):
        PoolDecoder(build_maximal(6, 2)).decode_mask(-1)
    decoder = PoolDecoder(rcbba_10_3_60)
    unions = decoder.union_lookup
    for u in unions.masks:
        unions.find(u & (u - 1))
    assert unions._columns is not None
    for pmask in (-1, -(1 << 40)):
        with pytest.raises(ValueError, match="non-negative"):
            decoder.decode_mask(pmask)


@pytest.mark.parametrize("m, addresses, requirement", INVALID_CODES)
def test_decoder_rejects_invalid_codes(m, addresses, requirement):
    with pytest.raises(ValueError) as excinfo:
        PoolDecoder(GrayCode.from_index_sets(m, 2, addresses))
    assert str(excinfo.value) == f"code needs {requirement}"


def test_lookup_falls_back_to_scan_only_above_n(code_6_2_15):
    # The scan fallback became the column query, whose columns a lookup
    # builds only once they would have saved about n lookups. None of these
    # decodes saves that much on 14 unions: the empty and the full outcome
    # fit every union, which needs no column, and the others enumerate.
    decoder = PoolDecoder(code_6_2_15)
    masks = list(code_6_2_15.bitmasks())
    union = masks[0] | masks[1]
    dropped = union & (union - 1)
    unions = decoder.union_lookup
    # 14 unions of weight 3 over 6 pools. One dropout: C(4, 1) = 4 supersets.
    assert decoder.decode_mask(dropped, False) == scan_decode(code_6_2_15, dropped, False)
    # Two extra pools: C(5, 3) = 10 subsets.
    extra = union | (0b111111 & ~union) & ((0b111111 & ~union) - 1)
    assert extra.bit_count() == 5
    assert decoder.decode_mask(extra, False) == scan_decode(code_6_2_15, extra, False)
    # An empty outcome has C(6, 3) = 20 supersets and the full one 20 subsets.
    assert decoder.decode_mask(0, False) == scan_decode(code_6_2_15, 0, False)
    assert decoder.decode_mask(0b111111, False) == scan_decode(code_6_2_15, 0b111111, False)
    assert unions._columns is None
    for pmask in (dropped, extra, 0, 0b111111):
        assert unions.near(pmask) == scan_near(unions, pmask)


def test_outcomes_that_every_mask_fits_enumerate_nothing(code_5_2_10):
    # The empty and the full outcome fit all C(5, 2) = 10 addresses. Listing
    # ten positions is priced above enumerating ten masks, but the every-mask
    # answer needs neither a lookup nor a column.
    decoder = PoolDecoder(code_5_2_10)
    for pmask in (0, 0b11111):
        with mock.patch.object(
            _MaskLookup, "_enumerate", autospec=True, side_effect=_MaskLookup._enumerate
        ) as spy:
            result = decoder.decode_mask(pmask)
        assert spy.call_count == 0
        assert result == scan_decode(code_5_2_10, pmask, True)
    assert decoder.addr_lookup._columns is None


@pytest.fixture(scope="module")
def rcbba_10_3_60() -> GrayCode:
    return rcbba(10, 3, 60, seed=0)


def test_lookup_builds_columns_once_they_would_have_paid(rcbba_10_3_60):
    decoder = PoolDecoder(rcbba_10_3_60)
    unions = decoder.union_lookup
    dropouts = [u & (u - 1) for u in unions.masks]
    # One decode of a dropout enumerates C(7, 1) = 7 supersets: no columns.
    decoder.decode_mask(dropouts[0])
    assert unions._columns is None
    assert decoder.addr_lookup._columns is None
    # Counting every dropout would save more than one build costs.
    found = [unions.find(p) for p in dropouts]
    assert unions._columns is not None
    assert type(found[0]) is list and type(found[-1]) is int
    for p, answer in zip(dropouts, found):
        expected = scan_near(unions, p)
        assert answer == (expected if type(answer) is list else sum(1 << j for j in expected))
        assert unions.near(p) == expected


def widened(code: GrayCode, width: int, pools: list[int]) -> GrayCode:
    """The code with pool i moved to ``pools[i]``, over ``width`` pools; a
    relabelled valid code is valid."""
    return GrayCode(
        width, code.r, [sum(1 << pools[i] for i in _set_bits(x)) for x in code.masks]
    )


@st.composite
def narrow_and_wide_codes(draw):
    """Small valid codes, half of them spread over 65..200 pools."""
    code = draw(small_valid_codes())
    if draw(st.booleans()):
        width = draw(st.integers(65, 200))
        pools = draw(st.permutations(range(width)))[: code.m]
        code = widened(code, width, pools)
    return code


@settings(max_examples=300, deadline=None)
@given(narrow_and_wide_codes(), st.data())
def test_columns_enumeration_and_scan_agree(code, data):
    decoder = PoolDecoder(code)
    m = code.m
    for lookup in (decoder.union_lookup, decoder.addr_lookup):
        # Near a mask of the code, with flips that may light pools above m.
        base = data.draw(st.sampled_from([0, *lookup.masks]), label="base")
        flips = data.draw(st.sets(st.integers(0, m + 1), max_size=4), label="flips")
        pmask = base ^ sum(1 << f for f in flips)
        low = pmask & ((1 << m) - 1)
        k_in = low.bit_count()
        assert lookup.near(pmask) == scan_near(lookup, pmask)
        for spare in spares(lookup, pmask):
            expected = scan_near(lookup, pmask, spare)
            bits = sum(1 << j for j in expected)
            found = lookup.find(pmask, spare)
            assert found == (expected if type(found) is list else bits)
            assert lookup._count(pmask, spare) == bits
            counts, _, _, every = lookup._plans[pmask.bit_count(), k_in, spare]
            assert not every or expected == list(range(1, len(lookup.masks) + 1))
            lookups = sum(comb(k_in, lookup.w - t) * comb(m - k_in, t) for t in counts)
            if lookups <= 5000:
                assert lookup._enumerate(low, ((1 << m) - 1) ^ low, counts) == expected


def plan_row(plans, ks, spare=0, listed=False):
    """One letter per k lit pools, all of them inside m: V when every mask
    fits, C when the columns save over enumerating, E otherwise."""
    row = ""
    for k in ks:
        _, for_bits, for_list, every = plans[k, k, spare]
        row += "V" if every else "C" if (for_list if listed else for_bits) > 0 else "E"
    return row


@pytest.mark.parametrize("n", [1000, 3000])
def test_plan_decision_table_at_m_18_r_6(n):
    # Plans depend on (m, w, n) only: w = 7 for the union lookup and w = 6
    # for the address lookup of an (18, 6, n) code. A price change that
    # moves a decision shows here.
    unions, addresses = _Plans(18, 7, n), _Plans(18, 6, n)
    assert plan_row(unions, range(19)) == "VCCCCCCECCCCCCCCCCV"
    assert plan_row(unions, range(19), listed=True) == "VCCCCCCECCCCCCCCCCV"
    assert plan_row(addresses, range(19)) == "VCCCCCECCCCCCCCCCCV"
    listed = {1000: "VCCCCCECCCCCCCCCCCV", 3000: "VCCCCCEECCCCCCCCCCV"}[n]
    assert plan_row(addresses, range(19), listed=True) == listed
    assert plan_row(unions, range(8), spare=1) == "VVCCCCCC"
    assert plan_row(addresses, range(7), spare=1) == "VVCCCCC"


def test_decoder_on_one_address_of_every_pool():
    # r = m: a union would have weight m+1 > m, so the union lookup is empty.
    decoder = PoolDecoder(GrayCode(3, 3, [0b111]))
    assert decoder.decode_mask(0b111).status == "exact-single"
    result = decoder.decode_mask(0b011)
    assert (result.status, result.candidate_items) == ("error-false-negative", (1,))


def test_decoder_memory_does_not_grow_with_m():
    # Three addresses over 20000 pools: a lookup that enumerated over every
    # pool would hold m masks of up to m bits each.
    tracemalloc.start()
    try:
        decoder = PoolDecoder(GrayCode(20000, 1, [0b1, 0b10, 0b100]))
        statuses = [decoder.decode_mask(p).status for p in (0b11, 0b1, 0b111, 0, 0b110)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert statuses == [
        "exact-pair", "ambiguous", "error-false-positive", "error-false-negative", "exact-pair"
    ]
    assert peak < 1 << 20


def test_column_build_memory_stays_near_what_it_keeps():
    # 10^5 weight-8 masks over 24 pools keep 24 columns of 10^5 bits, about
    # 0.3 MB. The transpose formats at most 4096 masks per binary string, so
    # the build peaks well under 2 MB rather than at 32 bytes per mask.
    rng = random.Random(0)
    drawn = (sum(1 << p for p in rng.sample(range(24), 8)) for _ in range(10**5 + 8000))
    masks = list(dict.fromkeys(drawn))[: 10**5]
    lookup = _MaskLookup(24, 8, masks, {x: j for j, x in enumerate(masks, start=1)})
    pmask = masks[0] & (masks[0] - 1)
    tracemalloc.start()
    try:
        found = lookup._count(pmask, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == sum(1 << j for j, x in enumerate(masks, start=1) if x & pmask == pmask)
    assert peak < 2 << 20
