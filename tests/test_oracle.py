import importlib
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from graypool import (
    InfeasibleError,
    balance_of,
    bba,
    exhaustive_best_balance,
    exhaustive_max,
    length_bound,
    validate,
)
from graypool.bba import SearchBudget, _path_search
from graypool.codes import _set_bits
from graypool.errors import BudgetExhaustedError
from graypool.oracle import _index_order


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


@pytest.mark.parametrize("m,r,limit", [(5, 2, 10**5), (6, 3, 10**5), (7, 3, 3000)])
def test_max_search_visits_the_same_paths_without_occupancy(m, r, limit):
    # exhaustive_max's hooks never read w, so the kernel skips its upkeep
    # there; every visit and the witness must stay as they were.
    def run(occupancy):
        budget, lengths = SearchBudget(limit), []

        def goal(path, w):
            assert (w is None) is (occupancy is None)
            lengths.append(len(path))
            return False

        try:
            found = _path_search((1 << r) - 1, budget, _index_order(m), goal, occupancy)
        except BudgetExhaustedError:
            found = "limit"
        return found, budget.spent, lengths

    assert run(None) == run([0] * m)


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
    with pytest.raises(BudgetExhaustedError) as caught:
        exhaustive_best_balance(5, 2, 9, node_limit=4)
    assert caught.value.best is None


def test_best_balance_node_limit_keeps_the_best_code_so_far():
    with pytest.raises(BudgetExhaustedError) as caught:
        exhaustive_best_balance(7, 2, 18, node_limit=30)
    best = caught.value.best
    assert best.n == 18 and validate(best).is_valid


def _every_start_best_balance(m, r, n, node_limit):
    """The balance oracle's search from every start in index order: the
    reference that the single-start ``exhaustive_best_balance`` must match.

    Returns the best code's masks, an empty tuple when the enumeration
    finishes without a code, or None when the node limit cuts it short.
    """
    floor_dev = 0 if n * r % m == 0 else 1
    best, best_dev = [], [None]

    def goal(path, w):
        if len(path) == n and (best_dev[0] is None or max(w) - min(w) < best_dev[0]):
            best_dev[0], best[:] = max(w) - min(w), path
        return best_dev[0] == floor_dev

    index_order = _index_order(m)

    def order(path, used, w):
        dev = best_dev[0]
        if len(path) == n or (dev is not None and max(w) - min(w) + len(path) - n >= dev):
            return ()
        return index_order(path, used, w)

    budget = SearchBudget(node_limit)
    try:
        for combo in combinations(range(m), r):
            start = sum(1 << c for c in combo)
            if _path_search(start, budget, order, goal, [0] * m) is not None:
                break
    except BudgetExhaustedError:
        return None
    return tuple(best)


def test_best_balance_matches_the_every_start_reference(monkeypatch):
    # Pool symmetry makes the start {1..r} complete: wherever the reference
    # finishes, the single start finishes at the same node limit with the
    # same code. Lengths one above the bound, with the bound check lifted,
    # make both enumerations run to their ends and prove that no code exists;
    # the single start then raises its internal error, and only there.
    bba_module = importlib.import_module("graypool.bba")
    monkeypatch.setattr(bba_module, "length_bound", lambda m, r: length_bound(m, r) + 1)
    cases = [
        (m, r, n)
        for m in range(2, 6)
        for r in range(1, m)
        for n in range(1, length_bound(m, r) + 2)
    ]
    finished = 0
    for m, r, n in cases + [(6, 3, 3), (6, 2, 4)]:
        for limit in (30, 3000, 3 * 10**5):
            expected = _every_start_best_balance(m, r, n, limit)
            if expected is None:
                continue
            finished += 1
            try:
                got = exhaustive_best_balance(m, r, n, node_limit=limit).masks
            except RuntimeError as exc:
                assert str(exc).startswith("internal error: enumeration exhausted")
                got = ()
            assert got == expected, (m, r, n, limit)
            assert got or n > length_bound(m, r)
    assert finished > 2 * len(cases)


def test_heuristic_tracks_oracle_on_small_instances():
    for n in (4, 6, 8):
        optimum = balance_of(exhaustive_best_balance(5, 2, n)).deviation
        heuristic = balance_of(bba(5, 2, n, seed=0)).deviation
        assert optimum <= heuristic <= optimum + 2


@given(st.data())
def test_index_order_memo_matches_the_definition(data):
    # One memo serves every call of a search: whatever the path uses, each
    # call must list the fresh neighbours b = a - x + z of the tip a whose
    # union a + z is unused, by ascending index tuple.
    m = data.draw(st.integers(min_value=2, max_value=7))
    r = data.draw(st.integers(min_value=1, max_value=m))
    weight_r = st.sets(st.integers(0, m - 1), min_size=r, max_size=r).map(
        lambda s: sum(1 << i for i in s)
    )
    order = _index_order(m)
    tips = data.draw(st.lists(weight_r, min_size=1, max_size=2))
    for tip in data.draw(st.lists(st.sampled_from(tips), min_size=2, max_size=6)):
        outside = [z for z in range(m) if not tip >> z & 1]
        moves = [(tip | 1 << z, tip ^ (1 << x | 1 << z)) for x in _set_bits(tip) for z in outside]
        used = {tip} | set(data.draw(st.lists(weight_r, max_size=3)))
        if moves:
            used |= set(data.draw(st.lists(st.sampled_from([u for u, _ in moves]), max_size=4)))
            used |= set(data.draw(st.lists(st.sampled_from([b for _, b in moves]), max_size=6)))
        expected = sorted((b for u, b in moves if u not in used and b not in used), key=_set_bits)
        assert list(order([tip], used, [0] * m)) == expected

