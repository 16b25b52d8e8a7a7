import importlib
import random
import time
from fractions import Fraction
from itertools import chain, combinations, repeat
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from graypool import (
    BudgetExhaustedError,
    ConstructionError,
    GrayCode,
    InfeasibleError,
    balance_of,
    balance_target,
    bba,
    length_bound,
    rcbba,
    validate,
)
from graypool.bba import SearchBudget, _balance_order, _construct_masks, _path_search
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


def _every_start_masks(m, r, n, first, target, rng, budget):
    """The search from the pinned or drawn start, then from every other start
    in index order: the reference that the single-start ``_construct_masks``
    must match. None when every start is exhausted, which proves that no
    code exists."""
    if first is None:
        first = sum(1 << p for p in rng.sample(range(m), r))
    order = _balance_order(m, target, rng, budget)
    others = (sum(1 << c for c in combo) for combo in combinations(range(m), r))
    for start in chain((first,), (a for a in others if a != first)):
        found = _path_search(m, start, budget, order, lambda path, w: len(path) == n)
        if found is not None:
            return found
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_single_start_matches_the_every_start_reference(data):
    # Pool symmetry makes one start complete: whatever the reference finds,
    # it finds from the first start, and where it proves that no code exists
    # the single start proves it too, with no more visits. That happens only
    # above the bound, past ``_check_request``, so there the single start
    # raises its internal error.
    m = data.draw(st.integers(min_value=2, max_value=7))
    r = data.draw(st.integers(min_value=1, max_value=m - 1))
    bound = length_bound(m, r)
    # Lengths above the bound make every search run to its end.
    n = data.draw(st.integers(max(1, bound - 3), bound + 2) | st.integers(1, bound))
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

    def run(construct):
        budget = SearchBudget(limit)
        try:
            outcome = construct(m, r, n, first, target, random.Random(seed), budget)
        except BudgetExhaustedError:
            outcome = BudgetExhaustedError
        except RuntimeError as exc:
            assert str(exc).startswith("internal error: search exhausted")
            outcome = RuntimeError
        return outcome, budget.spent

    (single, single_spent), (every, every_spent) = run(_construct_masks), run(_every_start_masks)
    # A found code comes as its masks and counts, a failure as its error
    # type, and the reference's proof that no code exists as None.
    if isinstance(single, tuple) or isinstance(every, tuple):
        assert (single, single_spent) == (every, every_spent)
    elif every is None:
        assert n > bound
        assert single is RuntimeError and single_spent <= every_spent
    else:
        # The reference ran out of budget: in the first start, like the
        # single start, or in a later one after the first was exhausted.
        assert every is BudgetExhaustedError
        assert (single, single_spent) == (every, every_spent) or (
            n > bound and single is RuntimeError and single_spent < every_spent
        )


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


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExhaustedError):
        bba(5, 2, 10, budget=5)
    for budget in (0, -4):
        with pytest.raises(ValueError, match="budget must be positive"):
            bba(5, 2, 10, budget=budget)


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


def test_a_passed_deadline_stops_the_search_at_the_next_check():
    # The deadline is read every 1024 visits, so the first check comes at
    # visit 1024 on any host.
    budget = SearchBudget(10**7, 1e-6)
    time.sleep(0.001)
    for _ in range(1023):
        budget.spend()
    with pytest.raises(BudgetExhaustedError, match="time limit exceeded"):
        budget.spend()
    assert budget.spent == 1024
    with pytest.raises(BudgetExhaustedError, match="time limit exceeded"):
        bba(14, 4, 950, budget=10**7, time_limit=1e-6)


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
    # rcbba's closing search hands the kernel a non-uniform target.
    target = (6, 6, 6, 6, 3, 3)
    masks, _ = _construct_masks(6, 2, 15, None, target, random.Random(0), SearchBudget(10**6))
    assert validate(GrayCode(6, 2, masks)).is_valid


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_search_counts_are_the_occupancy_of_its_code(data):
    # rcbba charges its residuals and reports its closing balance from these
    # counts, so they must equal a recount of the masks returned with them.
    m = data.draw(st.integers(min_value=2, max_value=8))
    r = data.draw(st.integers(min_value=1, max_value=m - 1))
    n = data.draw(st.integers(1, length_bound(m, r)))
    target = data.draw(
        st.just(balance_target(m, r, n))
        | st.lists(st.integers(0, 2 * n), min_size=m, max_size=m)
    )
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    try:
        masks, counts = _construct_masks(m, r, n, None, target, rng, SearchBudget(3000))
    except BudgetExhaustedError:
        return
    assert len(masks) == n
    assert tuple(counts) == balance_of(GrayCode(m, r, masks)).counts


@pytest.mark.parametrize("m,r,n", [(10, 4, 150), (12, 3, 150), (14, 4, 350)])
def test_moderate_instances_stay_balanced(m, r, n):
    code = bba(m, r, n, seed=0, budget=10**7)
    report = validate(code)
    assert report.is_valid
    assert code.n == n
    assert report.balance.deviation <= 8
