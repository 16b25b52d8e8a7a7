import json

import pytest
from hypothesis import given, strategies as st

from graypool import (
    GrayCode,
    IncidenceMatrix,
    balance_of,
    code_from_json_dict,
    code_to_json_dict,
    from_incidence,
    incidence_from_csv,
    incidence_to_csv,
    length_bound,
    load_code,
    save_code,
    to_incidence,
)
from graypool.codes import indices_from_mask, mask_from_indices

masks_m6 = st.integers(min_value=0, max_value=63)


def test_code_holds_masks_and_builds_address_views(code_5_2_10):
    code = GrayCode(5, 2, [0b00110, 0b00101])
    assert code.masks == (0b00110, 0b00101)
    assert code.bitmasks() is code.masks
    assert GrayCode(5, 2, iter(code.masks)) == code
    assert [indices_from_mask(x) for x in code.masks] == [(2, 3), (1, 3)]
    assert mask_from_indices((2, 3), 5) == 0b00110
    with pytest.raises(ValueError, match="pool index 4 out of range 1..3"):
        mask_from_indices((4,), 3)
    assert indices_from_mask(code_5_2_10.masks[0]) == (2, 3)
    with pytest.raises(ValueError, match="out of range"):
        GrayCode(3, 1, (0b1000,))
    with pytest.raises(ValueError, match="out of range"):
        GrayCode(3, 1, (-1,))


def test_balance_examples(code_5_2_10, code_6_2_15):
    bal = balance_of(code_5_2_10)
    assert bal.counts == (4, 4, 4, 4, 4)
    assert bal.deviation == 0
    assert balance_of(code_6_2_15).counts == (5,) * 6
    empty = GrayCode(3, 1, ())
    assert balance_of(empty).counts == (0, 0, 0)
    assert balance_of(empty).deviation == 0


@given(st.lists(masks_m6, max_size=30))
def test_balance_counts_sum_to_total_weight(masks):
    code = GrayCode(6, 2, masks)
    assert sum(balance_of(code).counts) == sum(x.bit_count() for x in masks)


@pytest.mark.parametrize(
    "m,r,expected",
    [(5, 2, 10), (4, 2, 5), (6, 2, 15), (3, 3, 1), (7, 7, 1), (18, 6, 18564)],
)
def test_length_bound(m, r, expected):
    assert length_bound(m, r) == expected


def test_length_bound_rejects_bad_weight():
    with pytest.raises(ValueError):
        length_bound(4, 0)
    with pytest.raises(ValueError):
        length_bound(4, 5)


def test_incidence_round_trip(code_5_2_10):
    mat = to_incidence(code_5_2_10)
    assert mat.m == 5 and mat.n == 10
    assert from_incidence(mat) == code_5_2_10
    assert mat.rows[1][0] == 1 and mat.rows[2][0] == 1


def test_incidence_rejects_malformed():
    with pytest.raises(ValueError):
        IncidenceMatrix(())
    with pytest.raises(ValueError):
        IncidenceMatrix(((0, 1), (1,)))
    with pytest.raises(ValueError):
        IncidenceMatrix(((0, 2),))


@given(st.lists(masks_m6, max_size=20))
def test_incidence_round_trip_any_sequence(masks):
    code = GrayCode(6, 2, masks)
    assert from_incidence(to_incidence(code), r=2) == code


def test_csv_round_trip(code_6_2_15, tmp_path):
    text = incidence_to_csv(to_incidence(code_6_2_15))
    assert text.splitlines()[0] == "1,0,0,0,0,0,1,1,0,0,0,0,0,1,1"
    assert from_incidence(incidence_from_csv(text)) == code_6_2_15
    path = tmp_path / "code.csv"
    save_code(code_6_2_15, path)
    assert load_code(path) == code_6_2_15


def test_csv_rejects_non_binary():
    with pytest.raises(ValueError):
        incidence_from_csv("0,1\n1,2\n")


def test_json_round_trip(code_5_2_10, tmp_path):
    obj = code_to_json_dict(code_5_2_10)
    assert obj["m"] == 5 and obj["r"] == 2 and obj["n"] == 10
    assert obj["addresses"][0] == [2, 3]
    assert obj["balance"] == [4, 4, 4, 4, 4]
    assert obj["deviation"] == 0
    assert code_from_json_dict(obj) == code_5_2_10
    path = tmp_path / "code.json"
    save_code(code_5_2_10, path, extra={"provenance": {"note": 1}})
    assert load_code(path) == code_5_2_10
    assert json.loads(path.read_text())["provenance"] == {"note": 1}


def test_json_rejects_inconsistent_n(code_5_2_10):
    obj = code_to_json_dict(code_5_2_10)
    obj["n"] = 3
    with pytest.raises(ValueError):
        code_from_json_dict(obj)


def test_formats_convert_losslessly(code_5_2_10, tmp_path):
    json_path = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    save_code(code_5_2_10, json_path)
    save_code(code_5_2_10, csv_path)
    assert load_code(json_path) == load_code(csv_path)
