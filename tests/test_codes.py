import json

import pytest
from hypothesis import given, strategies as st

from graypool import (
    Address,
    GrayCode,
    IncidenceMatrix,
    balance_of,
    code_from_json_dict,
    code_to_json_dict,
    consecutive_unions,
    from_incidence,
    hamming_distance,
    incidence_from_csv,
    incidence_to_csv,
    length_bound,
    load_code,
    or_sum,
    save_code,
    to_incidence,
)

addresses_m6 = st.integers(min_value=0, max_value=63).map(lambda b: Address(6, b))


def test_address_views_agree():
    a = Address.from_index_set(6, (1, 2, 6))
    assert a.bit_vector() == (1, 1, 0, 0, 0, 1)
    assert Address.from_bit_vector((1, 1, 0, 0, 0, 1)) == a
    assert a.weight == 3
    assert a.index_set == (1, 2, 6)


def test_address_rejects_bad_input():
    with pytest.raises(ValueError):
        Address(0, 0)
    with pytest.raises(ValueError):
        Address(3, 8)
    with pytest.raises(ValueError):
        Address.from_index_set(3, (4,))
    with pytest.raises(ValueError):
        Address.from_bit_vector((0, 2, 1))


def test_or_sum_examples():
    a = Address.from_index_set(5, (2, 3))
    b = Address.from_index_set(5, (1, 3))
    assert or_sum(a, b).index_set == (1, 2, 3)
    assert or_sum(a, a) == a
    with pytest.raises(ValueError):
        or_sum(a, Address.from_index_set(4, (1,)))


def test_hamming_examples():
    a = Address.from_index_set(5, (2, 3))
    b = Address.from_index_set(5, (1, 3))
    assert hamming_distance(a, b) == 2
    assert hamming_distance(a, a) == 0
    assert hamming_distance(
        Address.from_bit_vector((1, 0, 0)), Address.from_bit_vector((0, 1, 1))
    ) == 3


@given(addresses_m6, addresses_m6, addresses_m6)
def test_or_sum_is_a_semilattice(a, b, c):
    assert or_sum(a, b) == or_sum(b, a)
    assert or_sum(or_sum(a, b), c) == or_sum(a, or_sum(b, c))
    assert or_sum(a, a) == a


@given(addresses_m6, addresses_m6, addresses_m6)
def test_hamming_is_a_metric(a, b, c):
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert (hamming_distance(a, b) == 0) == (a == b)
    assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


@given(st.data())
def test_distance_two_union_gains_one(data):
    m = data.draw(st.integers(min_value=3, max_value=10))
    r = data.draw(st.integers(min_value=1, max_value=m - 1))
    base = data.draw(st.permutations(range(m)))
    kept = sorted(base[:r])
    drop = kept[data.draw(st.integers(min_value=0, max_value=r - 1))]
    gain = data.draw(st.sampled_from([i for i in range(m) if i not in kept]))
    a = Address(m, sum(1 << i for i in kept))
    b = Address(m, a.bits ^ (1 << drop) | (1 << gain))
    assert hamming_distance(a, b) == 2
    assert or_sum(a, b).weight == r + 1


def test_code_holds_masks_and_builds_address_views(code_5_2_10):
    code = GrayCode(5, 2, [0b00110, 0b00101])
    assert code.masks == (0b00110, 0b00101)
    assert code.bitmasks() is code.masks
    assert code.addresses == (Address(5, 0b00110), Address(5, 0b00101))
    assert code_5_2_10.addresses[0].index_set == (2, 3)
    with pytest.raises(ValueError, match="out of range"):
        GrayCode(3, 1, (0b1000,))
    with pytest.raises(ValueError, match="out of range"):
        GrayCode(3, 1, (-1,))


def test_consecutive_unions_on_known_code(code_5_2_10):
    unions = consecutive_unions(code_5_2_10)
    assert unions[0].index_set == (1, 2, 3)
    assert len(unions) == 9
    assert len({u.bits for u in unions}) == 9
    assert all(u.weight == 3 for u in unions)


def test_consecutive_unions_short_codes():
    single = GrayCode.from_index_sets(4, 2, [(1, 2)])
    assert consecutive_unions(single) == ()


def test_balance_examples(code_5_2_10, code_6_2_15):
    bal = balance_of(code_5_2_10)
    assert bal.counts == (4, 4, 4, 4, 4)
    assert bal.deviation == 0
    assert balance_of(code_6_2_15).counts == (5,) * 6
    empty = GrayCode(3, 1, ())
    assert balance_of(empty).counts == (0, 0, 0)
    assert balance_of(empty).deviation == 0


@given(st.lists(addresses_m6, max_size=30))
def test_balance_counts_sum_to_total_weight(addresses):
    code = GrayCode(6, 2, tuple(a.bits for a in addresses))
    assert sum(balance_of(code).counts) == sum(a.weight for a in addresses)


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
    assert code_5_2_10.addresses[0].index_set == (2, 3)


def test_incidence_rejects_malformed():
    with pytest.raises(ValueError):
        IncidenceMatrix(())
    with pytest.raises(ValueError):
        IncidenceMatrix(((0, 1), (1,)))
    with pytest.raises(ValueError):
        IncidenceMatrix(((0, 2),))


@given(st.lists(addresses_m6, max_size=20))
def test_incidence_round_trip_any_sequence(addresses):
    code = GrayCode(6, 2, tuple(a.bits for a in addresses))
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
