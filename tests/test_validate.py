import pytest
from hypothesis import given, strategies as st

from conftest import ROWS_5_2_10, code_from_rows
from graypool import GrayCode, PoolDecoder, apply_row_permutation, balance_of, validate
from graypool.validate import (
    ADJACENT_DISTANCE,
    CONSTANT_WEIGHT,
    DISTINCT_ADDRESSES,
    DISTINCT_OR_SUMS,
)


def test_known_code_is_valid(code_5_2_10):
    report = validate(code_5_2_10)
    assert report.is_valid
    assert report.violations == ()
    assert report.meets_bound
    assert report.balance.deviation == 0


def test_duplicate_address_reported(code_5_2_10):
    masks = code_5_2_10.masks + (code_5_2_10.masks[1],)
    report = validate(GrayCode(5, 2, masks))
    assert not report.is_valid
    assert any(
        v.constraint == DISTINCT_ADDRESSES and v.where == (2, 11)
        for v in report.violations
    )


def test_adjacent_distance_reported():
    report = validate(GrayCode.from_index_sets(4, 2, [(1, 2), (3, 4)]))
    assert not report.is_valid
    assert [v.constraint for v in report.violations] == [ADJACENT_DISTANCE]
    assert report.violations[0].where == (1, 2)


def test_duplicate_union_reported():
    # Distinct addresses walking a triangle reuse the same three-pool union.
    report = validate(GrayCode.from_index_sets(4, 2, [(1, 2), (2, 3), (1, 3)]))
    assert not report.is_valid
    assert [v.constraint for v in report.violations] == [DISTINCT_OR_SUMS]
    assert report.violations[0].where == (1, 2)


def test_weight_violations_are_exhaustive():
    report = validate(GrayCode.from_index_sets(3, 2, [(1, 2), (1,)]))
    constraints = sorted(v.constraint for v in report.violations)
    assert constraints == [ADJACENT_DISTANCE, CONSTANT_WEIGHT]
    weight = next(v for v in report.violations if v.constraint == CONSTANT_WEIGHT)
    assert weight.where == (2,)


def test_empty_and_single_address_codes_are_valid():
    assert validate(GrayCode(4, 2, ())).is_valid
    single = GrayCode.from_index_sets(4, 2, [(1, 3)])
    report = validate(single)
    assert report.is_valid
    assert not report.meets_bound


def test_full_length_code_has_perfect_balance(code_5_2_10):
    # At the combinatorial maximum every pool is used C(m-1, r-1) times.
    report = validate(code_5_2_10)
    assert report.meets_bound
    assert set(report.balance.counts) == {4}


def test_report_json_shape(code_5_2_10):
    obj = validate(code_5_2_10).to_json_dict()
    assert obj["is_valid"] is True
    assert obj["violations"] == []
    assert obj["meets_bound"] is True
    assert obj["deviation"] == 0


@given(st.permutations(range(1, 6)))
def test_validity_is_permutation_invariant(code_5_2_10, perm):
    permuted = apply_row_permutation(code_5_2_10, list(perm))
    report = validate(permuted)
    assert report.is_valid
    assert report.meets_bound
    assert sorted(report.balance.counts) == sorted(balance_of(code_5_2_10).counts)


@st.composite
def near_valid_codes(draw):
    """Prefixes of the valid (5, 2, 10) code rows, each address kept or
    replaced by a random mask, so valid and invalid codes both come up."""
    masks = list(code_from_rows(ROWS_5_2_10).masks[: draw(st.integers(0, 10))])
    for j in range(len(masks)):
        if draw(st.integers(0, 5)) == 0:
            masks[j] = draw(st.integers(0, 31))
    return GrayCode(5, draw(st.sampled_from([2, 2, 2, 1, 3])), masks)


@given(near_valid_codes())
def test_unmet_requirement_is_none_exactly_for_valid_codes(code):
    unmet = PoolDecoder(code).unmet_requirement()
    assert (unmet is None) == validate(code).is_valid
