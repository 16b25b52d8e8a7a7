from itertools import combinations

import pytest
from hypothesis import event, given, settings, strategies as st

from graypool import GrayCode, PoolDecoder, partition_items
from graypool.decode import DecodeResult, _MaskLookup


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


@st.composite
def small_codes(draw):
    """Short codes over at most 6 pools, valid or not: a few distinct masks,
    mostly of weight r, drawn with repetition so that duplicates are common."""
    m = draw(st.integers(min_value=1, max_value=6))
    r = draw(st.integers(min_value=0, max_value=m))
    weight_r = st.sets(st.integers(0, m - 1), min_size=r, max_size=r).map(
        lambda pools: sum(1 << p for p in pools)
    )
    any_mask = st.integers(0, (1 << m) - 1)
    pool = draw(st.lists(st.one_of(weight_r, weight_r, any_mask), min_size=1, max_size=8))
    masks = draw(st.lists(st.sampled_from(pool), max_size=16))
    return GrayCode(m, r, masks)


@settings(max_examples=300, deadline=None)
@given(small_codes(), st.data())
def test_indexed_decode_matches_scan(code, data):
    # Outcomes may light pools above m; they count toward k but match nothing.
    pmask = data.draw(st.integers(0, (1 << (code.m + 2)) - 1), label="pmask")
    decoder = PoolDecoder(code)
    for allow_single in (True, False):
        assert decoder.decode_mask(pmask, allow_single) == scan_decode(code, pmask, allow_single)
    for lookup in (decoder.union_lookup, decoder.addr_lookup):
        for outside in range(code.m + 1):
            for cover in (False, True):
                expected = lookup._scan(pmask, outside, cover)
                found = lookup._lookup(pmask, outside, cover)
                event("scan fallback" if found is None else "enumerated")
                assert lookup.near(pmask, outside, cover) == expected
                if found is not None:
                    assert found == expected


@pytest.mark.parametrize(
    "m, r, masks, pmask",
    [
        (3, 0, [0, 0, 1], 16),  # a pool above m lifts k to r+1 but matches no union
        (3, 1, [1, 2, 4, 2], 0b1010),  # pool 4 above m: no union contains it
        (4, 2, [3, 6, 12, 6, 3], 0b0110),  # repeated addresses and unions
        (4, 2, [3, 7, 12, 1, 15], 0b0011),  # mixed weights
    ],
)
def test_indexed_decode_matches_scan_on_invalid_codes(m, r, masks, pmask):
    code = GrayCode(m, r, masks)
    decoder = PoolDecoder(code)
    for allow_single in (True, False):
        assert decoder.decode_mask(pmask, allow_single) == scan_decode(code, pmask, allow_single)


def test_lookup_falls_back_to_scan_only_above_n(code_6_2_15, monkeypatch):
    scans = []
    scan = _MaskLookup._scan
    monkeypatch.setattr(
        _MaskLookup, "_scan", lambda self, *args: scans.append(args) or scan(self, *args)
    )
    decoder = PoolDecoder(code_6_2_15)
    masks = list(code_6_2_15.bitmasks())
    union = masks[0] | masks[1]
    dropped = union & (union - 1)
    # 14 unions of weight 3 over 6 pools. One dropout: C(4, 1) = 4 supersets.
    assert decoder.decode_mask(dropped, False) == scan_decode(code_6_2_15, dropped, False)
    # Two extra pools: C(5, 3) = 10 subsets.
    extra = union | (0b111111 & ~union) & ((0b111111 & ~union) - 1)
    assert extra.bit_count() == 5
    assert decoder.decode_mask(extra, False) == scan_decode(code_6_2_15, extra, False)
    assert scans == []
    # An empty outcome has C(6, 3) = 20 supersets and the full one 20 subsets.
    assert decoder.decode_mask(0, False) == scan_decode(code_6_2_15, 0, False)
    assert decoder.decode_mask(0b111111, False) == scan_decode(code_6_2_15, 0b111111, False)
    assert len(scans) == 2
