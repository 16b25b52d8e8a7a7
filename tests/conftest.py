import pytest

from graypool import GrayCode

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
