import importlib
import random
from fractions import Fraction
from itertools import chain, repeat
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from graypool import (
    BudgetExhaustedError,
    ConstructionError,
    InfeasibleError,
    balance_of,
    balance_target,
    bba,
    length_bound,
    rcbba,
    validate,
)
from graypool.bba import SearchBudget, _balance_order, _construct_masks
from graypool.codes import _set_bits, mask_from_indices


def test_balance_target_spreads_remainder():
    assert balance_target(5, 2, 7) == (3, 3, 3, 3, 2)
    assert balance_target(6, 2, 15) == (5, 5, 5, 5, 5, 5)
    assert sum(balance_target(13, 3, 271)) == 3 * 271
    assert max(balance_target(13, 3, 271)) - min(balance_target(13, 3, 271)) <= 1


def balance_penalty(target, occupancy):
    """Population variance of ``target - occupancy``, exactly: the reference
    that bba's per-pool key stands in for."""
    residual = [Fraction(t - o) for t, o in zip(target, occupancy)]
    mean = sum(residual) / len(residual)
    return sum((x - mean) ** 2 for x in residual) / len(residual)


def test_balance_penalty_values():
    assert balance_penalty((2, 2, 2), (2, 2, 2)) == 0
    # Shift-invariant: a uniformly missed target still scores zero.
    assert balance_penalty((4, 4, 4), (2, 2, 2)) == 0
    assert balance_penalty((1, 0, 1, 0), (0, 0, 0, 0)) == Fraction(1, 4)


def _tip_state(data):
    """A random tip and the path state around it: (m, tip, used, target, w)."""
    m = data.draw(st.integers(min_value=3, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=m - 1))
    weight_r = st.sets(st.integers(0, m - 1), min_size=r, max_size=r).map(
        lambda s: sum(1 << i for i in s)
    )
    tip = data.draw(weight_r)
    used = {tip} | set(data.draw(st.lists(weight_r, max_size=6)))
    used |= {tip | 1 << z for z in data.draw(st.sets(st.integers(0, m - 1), max_size=2))}
    target = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    w = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    return m, tip, used, target, w


@given(st.data())
def test_per_pool_key_orders_like_the_balance_penalty(data):
    # bba ranks a candidate union or address by one pool's occupancy gap;
    # that must order candidates as the variance of the target minus the
    # occupancy of the path extended by the candidate would, smaller mask
    # first on ties.
    m, tip, used, target, w = _tip_state(data)

    def ranked(candidates):
        def key(mask):
            occupancy = [w[i] + (i in _set_bits(mask)) for i in range(m)]
            return balance_penalty(target, occupancy), mask

        return sorted((c for c in candidates if c not in used), key=key)

    expected = [
        b
        for u in ranked(tip | 1 << z for z in range(m) if not tip >> z & 1)
        for b in ranked(u ^ 1 << x for x in _set_bits(u))
    ]
    budget = SearchBudget(10**6)
    # A path longer than the start alone keeps the random first draw out.
    order = _balance_order(m, target, random.Random(0), budget)
    assert list(order([0, tip], used, w)) == expected
    # Each union opened is charged.
    opened = sum(1 for z in range(m) if not tip >> z & 1 and tip | 1 << z not in used)
    assert budget.spent == opened


@given(st.data())
def test_balance_order_charges_each_union_when_it_opens_it(data):
    # The order is lazy: after each address it yields, the unions opened so
    # far, those that yielded nothing included, are exactly the ones charged.
    m, tip, used, target, w = _tip_state(data)
    unions = sorted(
        (w[z] - target[z], tip | 1 << z)
        for z in range(m)
        if not tip >> z & 1 and tip | 1 << z not in used
    )
    position = {u: i for i, (_, u) in enumerate(unions)}
    budget = SearchBudget(10**6)
    order = _balance_order(m, target, random.Random(0), budget)
    for b in order([0, tip], used, w):
        assert budget.spent == position[tip | b] + 1
    assert budget.spent == len(unions)


def _chained_balance_order(m, target, rng, budget):
    """bba's candidate order as a chain of per-union address lists: the
    reference that the one-generator ``_balance_order`` must match."""
    full = (1 << m) - 1

    def addresses(u, used, w):
        budget.spend()
        keyed = [(target[x] - w[x], b) for x in _set_bits(u) if (b := u ^ 1 << x) not in used]
        keyed.sort()
        return [b for _, b in keyed]

    def order(path, used, w):
        a = path[-1]
        keyed = [
            (w[z] - target[z], u) for z in _set_bits(full ^ a) if (u := a | 1 << z) not in used
        ]
        first = keyed.pop(rng.randrange(len(keyed))) if len(path) == 1 and keyed else None
        keyed.sort()
        unions = [u for _, u in keyed]
        if first is not None:
            unions.insert(0, first[1])
        return chain.from_iterable(map(addresses, unions, repeat(used), repeat(w)))

    return order


# The module, not the ``bba`` function that ``graypool.bba`` names as an attribute.
_bba_module = importlib.import_module("graypool.bba")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_balance_order_matches_the_chained_reference(data):
    # Same codes, same errors and the same visits charged, so a budget runs
    # out at the same visit under either order.
    m = data.draw(st.integers(min_value=2, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=m - 1))
    bound = length_bound(m, r)
    # Lengths near the bound are where searches backtrack and budgets run out.
    n = data.draw(st.integers(1, bound) | st.integers(max(1, bound - 3), bound))
    first = data.draw(
        st.none()
        | st.sets(st.integers(0, m - 1), min_size=r, max_size=r).map(
            lambda s: sum(1 << i for i in s)
        )
    )
    target = data.draw(
        st.just(balance_target(m, r, n))
        | st.lists(st.integers(0, 2 * n), min_size=m, max_size=m)
    )
    seed = data.draw(st.integers(0, 2**32))
    limit = data.draw(st.integers(min_value=1, max_value=3000))

    def run(order):
        budget = SearchBudget(limit)
        with mock.patch.object(_bba_module, "_balance_order", order):
            try:
                outcome = _construct_masks(m, r, n, first, target, random.Random(seed), budget)
            except ConstructionError as exc:
                outcome = type(exc)
        return outcome, budget.spent

    assert run(_balance_order) == run(_chained_balance_order)


def test_constructs_full_length_code():
    first = mask_from_indices((2, 3), 5)
    code = bba(5, 2, 10, first, seed=0)
    report = validate(code)
    assert report.is_valid
    assert report.meets_bound
    assert code.masks[0] == first
    assert report.balance.deviation == 0


def test_single_address_request():
    first = mask_from_indices((1, 4), 6)
    code = bba(6, 2, 1, first, seed=3)
    assert code.masks == (first,)


def test_infeasible_length_rejected():
    with pytest.raises(InfeasibleError):
        bba(4, 2, 6)


def test_parameter_errors():
    with pytest.raises(ValueError):
        bba(4, 4, 1)
    with pytest.raises(ValueError):
        bba(4, 2, 0)
    with pytest.raises(ValueError, match="must have weight 2"):
        bba(5, 2, 4, 0b00111)
    with pytest.raises(ValueError, match="out of range for m=5"):
        bba(5, 2, 4, 0b100011)
    with pytest.raises(ValueError, match="out of range for m=5"):
        bba(5, 2, 4, -3)
    with pytest.raises(ValueError):
        bba(5, 2, 4, target_balance=(1, 1))
    with pytest.raises(ValueError):
        bba(5, 2, 4, target_balance=(90, 90, 90, 90, 90))


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExhaustedError):
        bba(5, 2, 10, budget=5)


@pytest.mark.parametrize("time_limit", [0, 0.0, -1, -0.5, float("nan")])
def test_time_limit_must_be_positive(time_limit):
    with pytest.raises(ValueError, match="time limit"):
        SearchBudget(10, time_limit)
    with pytest.raises(ValueError, match="time limit"):
        bba(5, 2, 10, time_limit=time_limit)
    with pytest.raises(ValueError, match="time limit"):
        rcbba(6, 2, 12, time_limit=time_limit)


def test_only_none_means_no_time_limit():
    assert SearchBudget(10).deadline is None
    assert SearchBudget(10, None).deadline is None
    assert SearchBudget(10, 5.0).deadline is not None
    assert validate(bba(5, 2, 10, time_limit=60)).is_valid


def test_deterministic_across_runs():
    a = bba(10, 3, 60, seed=7)
    b = bba(10, 3, 60, seed=7)
    assert a == b
    c = bba(10, 3, 60, seed=8)
    assert validate(c).is_valid


def test_random_first_address_is_seeded():
    a = bba(8, 3, 30, seed=5)
    b = bba(8, 3, 30, seed=5)
    assert a.masks[0] == b.masks[0]


def test_full_enumeration_codes_reach_perfect_balance():
    # Any valid code using every weight-r address has equal pool counts.
    for m, r in [(5, 2), (6, 2)]:
        code = bba(m, r, length_bound(m, r), seed=0)
        assert balance_of(code).deviation == 0


def test_respects_supplied_target():
    target = (6, 6, 6, 6, 3, 3)
    code = bba(6, 2, 15, target_balance=target, seed=0)
    assert validate(code).is_valid


@pytest.mark.parametrize("m,r,n", [(10, 4, 150), (12, 3, 150), (14, 4, 350)])
def test_moderate_instances_stay_balanced(m, r, n):
    code = bba(m, r, n, seed=0, budget=10**7)
    report = validate(code)
    assert report.is_valid
    assert code.n == n
    assert report.balance.deviation <= 8
