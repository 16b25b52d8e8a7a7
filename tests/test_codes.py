import json
import math
import random
import signal
import tracemalloc
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from graypool import (
    BalanceVector,
    GrayCode,
    balance_of,
    code_from_json_dict,
    code_to_json_dict,
    length_bound,
    load_code,
    save_code,
)
from graypool.codes import (
    _code_from_csv,
    _code_to_csv,
    _columns,
    _set_bits,
    code_to_json,
    indices_from_mask,
    mask_from_indices,
)

masks_m6 = st.integers(min_value=0, max_value=63)


@given(st.integers(0, 130).flatmap(lambda width: st.integers(0, (1 << width) - 1)))
def test_set_bits_lists_every_set_bit(mask):
    assert _set_bits(mask) == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


@given(
    st.one_of(
        st.binary(max_size=1 << 10).map(lambda data: int.from_bytes(data, "little")),
        st.sets(st.integers(0, (1 << 13) - 1), max_size=12).map(
            lambda bits: sum(1 << b for b in bits)
        ),
        st.tuples(st.integers(10**4, 10**5), st.integers(40, 100), st.randoms()).map(
            lambda t: sum(1 << b for b in t[2].sample(range(t[0]), t[1]))
        ),
    )
)
def test_set_bits_on_wide_dense_and_sparse_masks(mask):
    # Up to 2^13 bits wide: dense masks from random bytes, sparse ones with a
    # few bits far apart, so that long runs of zero chunks are jumped. Masks
    # with 40 to 100 set bits over 10^4 to 10^5 bits sit on both sides of the
    # switch from peeling to the byte walk. The reference reads the binary
    # string, which stays linear in the width.
    bits = format(mask, "b")[::-1]
    assert _set_bits(mask) == tuple(i for i, bit in enumerate(bits) if bit == "1")


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**5), st.integers(0, 4), st.integers(0, 2**32))
def test_set_bits_on_masks_up_to_1e5_bits(width, thinning, seed):
    # Density 1/2 down to 1/32: both sides of the dense/sparse switch above
    # pool 20, at widths where a shift of the whole int per step would show.
    rng = random.Random(seed)
    mask = rng.getrandbits(width)
    for _ in range(thinning):
        mask &= rng.getrandbits(width)
    assert _set_bits(mask) == tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def test_set_bits_keeps_no_tables_for_wide_masks():
    tracemalloc.start()
    try:
        assert _set_bits((1 << 5000) | 1) == (0, 5000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_indices_from_mask_rejects_a_negative_mask():
    # _set_bits never ends on a negative int, whose shifts and peeled bits
    # stay negative; the alarm turns such a hang into a failure.
    def hang(signum, frame):
        raise TimeoutError("indices_from_mask did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(2)
    try:
        for mask in (-1, -(1 << 40)):
            with pytest.raises(ValueError, match=f"non-negative, got {mask}"):
                indices_from_mask(mask)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
    with pytest.raises(ValueError, match=r"address weight 4 out of range 0\.\.3"):
        GrayCode(3, 4, ())
    assert BalanceVector(()).deviation == 0


@pytest.mark.parametrize("masks", [[1.0, 2], [1, True], [1, 2.0**70]])
def test_code_rejects_masks_that_are_not_ints(masks):
    # A bool is an int subclass and a float compares like one, so the range
    # check alone lets both through to readers that need int methods.
    with pytest.raises(ValueError, match="is not an int"):
        GrayCode(3, 1, masks)


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


def _reference_columns(masks):
    """Bit-by-bit transpose: peel each mask's lowest set bit into its pool's column."""
    columns = {}
    for j, x in enumerate(masks):
        while x:
            low = x & -x
            p = low.bit_length() - 1
            columns[p] = columns.get(p, 0) | 1 << j
            x ^= low
    return columns


def _reference_balance(code):
    """The per-address occupancy count that ``balance_of`` replaced."""
    counts = [0] * code.m
    for x in code.masks:
        for i in _set_bits(x):
            counts[i] += 1
    return tuple(counts)


# Pools on both sides of the 32- and 64-pool word boundaries.
EDGE_POOLS = (0, 1, 30, 31, 32, 33, 63, 64, 65, 95, 96, 127, 128)


@st.composite
def pool_sets_and_masks(draw):
    """Width, and masks over a few pools of it (none for all-zero masks),
    up to 10^5 pools wide and on both sides of 4096 masks long."""
    width = draw(st.sampled_from([1, 33, 65, 200, 10**5]))
    pools = draw(
        st.lists(st.sampled_from(EDGE_POOLS) | st.integers(0, width - 1), max_size=8, unique=True)
    )
    pools = [p for p in pools if p < width]
    n = draw(st.sampled_from([0, 1, 2, 4095, 4096, 4097, 8193]) | st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    masks = [sum(1 << p for p in pools if rng.random() < density) for _ in range(n)]
    return width, masks


@settings(max_examples=60, deadline=None)
@given(pool_sets_and_masks())
@example((1, []))
@example((65, [0] * 4097))
def test_columns_match_the_bit_by_bit_transpose(width_and_masks):
    width, masks = width_and_masks
    assert _columns(masks) == _reference_columns(masks)
    code = GrayCode(width, 0, masks)
    assert balance_of(code).counts == _reference_balance(code)


def test_columns_visit_only_the_words_that_hold_a_pool():
    # Three pools 50,000 apart: three words of 32 pools, not 3125.
    masks = [1, 1 << 50000, 1 << 99999]
    with mock.patch("graypool.codes.array", wraps=array) as spy:
        assert _columns(masks) == {0: 0b1, 50000: 0b10, 99999: 0b100}
    # One call sizes the word, then one per word visited.
    assert spy.call_count == 4


@pytest.mark.parametrize(
    "m,r,expected",
    [(5, 2, 10), (4, 2, 5), (6, 2, 15), (3, 3, 1), (7, 7, 1), (18, 6, 18564)],
)
def test_length_bound(m, r, expected):
    assert length_bound(m, r) == expected


def test_length_bound_matches_both_binomials():
    for m in range(1, 61):
        for r in range(1, m + 1):
            assert length_bound(m, r) == min(math.comb(m, r), math.comb(m, r + 1) + 1), (m, r)


def test_length_bound_rejects_bad_weight():
    with pytest.raises(ValueError):
        length_bound(4, 0)
    with pytest.raises(ValueError):
        length_bound(4, 5)
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"pool count must be at least 1, got {m}"):
            length_bound(m, 1)


@given(st.lists(masks_m6, min_size=1, max_size=20))
def test_csv_round_trip_any_sequence(masks):
    code = GrayCode(6, masks[0].bit_count(), masks)
    assert _code_from_csv(_code_to_csv(code)) == code


def test_csv_round_trip(code_6_2_15, tmp_path):
    text = _code_to_csv(code_6_2_15)
    assert text.splitlines()[0] == "1,0,0,0,0,0,1,1,0,0,0,0,0,1,1"
    assert _code_from_csv(text) == code_6_2_15
    path = tmp_path / "code.csv"
    save_code(code_6_2_15, path)
    assert load_code(path) == code_6_2_15


def test_csv_rejects_non_binary():
    with pytest.raises(ValueError, match="line 2: entry '2' is not 0 or 1"):
        _code_from_csv("0,1\n1,2\n")


def test_a_code_with_no_addresses_is_saved_as_json_only(tmp_path):
    empty = GrayCode(5, 2, ())
    path = tmp_path / "e.csv"
    with pytest.raises(ValueError, match="^a CSV code file needs at least one address$"):
        save_code(empty, path)
    assert not path.exists()
    path = tmp_path / "e.json"
    save_code(empty, path)
    assert load_code(path) == empty


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


# Plain characters and everything json.dumps escapes: quote, backslash,
# control characters, non-ASCII, U+2028 and an astral character. A fixed
# alphabet keeps generation fast without hypothesis's unicode tables.
json_text = st.text(alphabet='a :,[]"\\\n\t\x00\x1f\u00e9\u2028\U0001f600', max_size=6)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["addresses", "m", "note", '\n  "addresses": []']), inner,
                      max_size=3),
    max_leaves=8,
)


@st.composite
def codes_and_extras(draw):
    m = draw(st.integers(1, 70))
    r = draw(st.integers(0, m))
    # Draw from a few masks so that duplicates are common; 0 is among them.
    pool = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=6)) + [0]
    masks = draw(st.lists(st.sampled_from(pool), max_size=40))
    # A top-level "addresses" in extra replaces the code's own.
    extra = draw(
        st.none()
        | st.dictionaries(st.sampled_from(["provenance", "note", "addresses"]), json_values,
                          max_size=3)
    )
    return GrayCode(m, r, masks), extra


def _reference_code_to_csv(code):
    """The cell-by-cell CSV writer that ``_code_to_csv`` replaced."""
    rows = [[(x >> i) & 1 for x in code.masks] for i in range(code.m)]
    return "\n".join(",".join(str(bit) for bit in row) for row in rows) + "\n"


@settings(max_examples=300)
@given(codes_and_extras())
def test_code_writers_match_the_generic_encoders(code_and_extra):
    code, extra = code_and_extra
    assert code_to_json(code, extra) == json.dumps(code_to_json_dict(code, extra), indent=2) + "\n"
    if code.masks:
        assert _code_to_csv(code) == _reference_code_to_csv(code)
    else:
        with pytest.raises(ValueError, match="at least one address"):
            _code_to_csv(code)


def _reference_code_from_csv(text):
    """The cell-by-cell CSV reader that ``_code_from_csv`` replaced."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [cell.strip() for cell in line.split(",")]
        row = []
        for cell in cells:
            if cell not in ("0", "1"):
                raise ValueError(f"line {lineno}: entry {cell!r} is not 0 or 1")
            row.append(int(cell))
        rows.append(tuple(row))
    if not rows:
        raise ValueError("incidence matrix must have at least one row")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {i + 1}: {len(row)} entries, expected {width}")
    masks = [0] * width
    for i, row in enumerate(rows):
        masks = [x | 1 << i if bit else x for x, bit in zip(masks, row)]
    r = masks[0].bit_count() if masks else 0
    return GrayCode(len(rows), r, masks)


@st.composite
def csv_texts(draw):
    width = draw(st.integers(1, 10))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["row"] * 5 + ["padded", "blank", "ragged", "trailing comma", "bad cell"]
        ))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t \t"])))
            continue
        size = width + draw(st.sampled_from([-1, 1])) if kind == "ragged" else width
        cells = ["0", "1"] + ([" 0", "1\t", " 1 ", "\t0"] if kind == "padded" else [])
        row = draw(st.lists(st.sampled_from(cells), min_size=size, max_size=size))
        if kind == "bad cell":
            row[draw(st.integers(0, size - 1))] = draw(st.sampled_from(["", " ", "2", "01"]))
        line = ",".join(row)
        lines.append(line + "," if kind == "trailing comma" else line)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _outcome(read, text):
    try:
        return read(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=400)
@given(csv_texts() | st.text(alphabet="01, \t\r\n2", max_size=40))
def test_csv_reader_matches_the_cell_by_cell_reference(text):
    expected = _outcome(_reference_code_from_csv, text)
    assert _outcome(_code_from_csv, text) == expected
