import pytest

from graypool import (
    InfeasibleError,
    NodeLimitError,
    balance_of,
    bba,
    exhaustive_best_balance,
    exhaustive_max,
    length_bound,
    validate,
)


@pytest.mark.parametrize("m,r,expected", [(3, 1, 3), (4, 2, 5), (5, 2, 10), (5, 3, 6)])
def test_exhaustive_max_small_cases(m, r, expected):
    result = exhaustive_max(m, r)
    assert result.max_length == expected
    assert result.is_exact
    assert result.witness.n == expected
    assert validate(result.witness).is_valid


def test_exhaustive_max_never_beats_the_bound():
    for m, r in [(4, 1), (5, 1), (6, 2)]:
        result = exhaustive_max(m, r)
        assert result.max_length <= length_bound(m, r)


def test_exhaustive_max_reports_truncation():
    result = exhaustive_max(5, 2, node_limit=4)
    assert not result.is_exact
    assert result.max_length <= 4
    assert result.search_nodes == 5


def test_node_limit_must_be_positive():
    for limit in (0, -3):
        with pytest.raises(ValueError, match="node limit must be positive"):
            exhaustive_max(5, 2, node_limit=limit)
        with pytest.raises(ValueError, match="node limit must be positive"):
            exhaustive_best_balance(5, 2, 4, node_limit=limit)


def test_exhaustive_max_unfixed_start_agrees():
    fixed = exhaustive_max(4, 2)
    free = exhaustive_max(4, 2, fix_first_address=False)
    assert fixed.max_length == free.max_length == 5


def test_best_balance_full_enumeration_is_perfect():
    code = exhaustive_best_balance(5, 2, 10)
    assert balance_of(code).deviation == 0
    assert validate(code).is_valid


def test_best_balance_single_address():
    code = exhaustive_best_balance(5, 2, 1)
    assert balance_of(code).deviation == 1


def test_best_balance_five_of_ten():
    # 5 addresses of weight 2 can cover all 5 pools exactly twice.
    code = exhaustive_best_balance(5, 2, 5)
    assert balance_of(code).deviation == 0


def test_best_balance_rejects_overlong():
    with pytest.raises(InfeasibleError):
        exhaustive_best_balance(4, 2, 6)


def test_best_balance_node_limit():
    # A limit below the path length cannot admit even one complete code.
    with pytest.raises(NodeLimitError):
        exhaustive_best_balance(5, 2, 9, node_limit=4)


def test_heuristic_tracks_oracle_on_small_instances():
    for n in (4, 6, 8):
        optimum = balance_of(exhaustive_best_balance(5, 2, n)).deviation
        heuristic = balance_of(bba(5, 2, n, seed=0)).deviation
        assert optimum <= heuristic <= optimum + 2
