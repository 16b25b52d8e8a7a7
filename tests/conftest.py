from functools import cache

import pytest
from hypothesis import strategies as st

from graypool import GrayCode, bba, length_bound, rcbba

# A maximal, perfectly balanced (5, 2, 10) code: one 0/1 row per pool, one
# column per address.
ROWS_5_2_10 = (
    (0, 1, 1, 0, 0, 0, 0, 0, 1, 1),
    (1, 0, 0, 1, 0, 0, 1, 0, 0, 1),
    (1, 1, 0, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 1, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
)

# A (5, 1, 5) code whose last address fits under the first address above.
ROWS_5_1_5 = (
    (1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0),
    (0, 1, 0, 0, 0),
)

# Their combination: a perfectly balanced (6, 2, 15) code.
ROWS_6_2_15 = (
    (1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1),
    (0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1),
    (0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)

# The requests of the paper's bba table that fit the length bound.
BBA_GRID = [
    (m, r, n)
    for m in (10, 12, 14)
    for r in (2, 3, 4)
    for n in (150, 350, 550, 750, 950)
    if n <= length_bound(m, r)
]

# Codes with r = 2 that each fail a requirement of a valid code, and the
# first requirement each one fails, worded to follow "code needs".
INVALID_CODES = (
    (5, [(1, 2), (2, 3), (1, 2), (2, 3)], "distinct addresses"),
    (4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 2)], "distinct addresses"),
    (4, [(1, 2), (1, 2, 3)], "every address to have weight r=2"),
    (4, [(1, 2), (2, 3), (1, 3)], "distinct consecutive unions"),
    (4, [(1, 2), (3, 4)], "every consecutive union to have weight r+1=3"),
)


def code_from_rows(rows) -> GrayCode:
    """Column j of the rows is address j; r is the weight of the first column."""
    masks = [sum(bit << i for i, bit in enumerate(column)) for column in zip(*rows)]
    return GrayCode(len(rows), masks[0].bit_count(), masks)


def csv_from_rows(rows) -> str:
    """The CSV text of a code file: one comma-separated line per row."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


@pytest.fixture(scope="session")
def code_5_2_10() -> GrayCode:
    return code_from_rows(ROWS_5_2_10)


@pytest.fixture(scope="session")
def code_5_1_5() -> GrayCode:
    return code_from_rows(ROWS_5_1_5)


@pytest.fixture(scope="session")
def code_6_2_15() -> GrayCode:
    return code_from_rows(ROWS_6_2_15)


@cache
def _small_code(alg, m, r, seed):
    # Every one of these requests builds; some shorter rcbba requests at
    # m = 8 raise NoJoiningAddressError, so shorter codes are prefixes.
    n = max(2, min(30, length_bound(m, r) * 2 // 3))
    return (bba if alg == "bba" else rcbba)(m, r, n, seed=seed)


@st.composite
def small_valid_codes(draw, min_length=0):
    """Prefixes of at least ``min_length`` addresses of bba and rcbba codes
    over 3..8 pools, at most 30 long; a prefix of a valid code is valid."""
    m = draw(st.integers(3, 8))
    r = draw(st.integers(1, m - 1))
    alg = draw(st.sampled_from(["bba", "rcbba"]))
    code = _small_code(alg, m, r, draw(st.integers(0, 3)))
    return GrayCode(m, r, code.masks[: draw(st.integers(min_length, code.n))])
