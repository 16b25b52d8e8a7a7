"""Branch-and-bound construction of balanced codes.

A code is a path in the bipartite graph whose nodes are the weight-r
addresses and the weight-(r+1) unions of adjacent addresses: from an
address the path steps to one of its unused unions, and from a union to one
of its unused weight-r subsets. ``_path_search`` is the one depth-first
walk over that graph. It keeps the path, the set of addresses and unions
the path uses, and, for the searches whose hooks read it, a per-pool
vector that starts where the search says and counts the path's occupancy
on top, which it returns with the path. It charges every address it enters
to a ``SearchBudget`` and takes two hooks: the candidate order at the tip
and a goal test. An order that yields nothing ends the branch, so a bound
is part of the order. bba runs it, and so do both exhaustive oracles in
``graypool.oracle``.

bba orders candidates to keep pool usage level. Its vector starts at minus
the per-pool occupancy target, so ``w[z]`` is pool z's occupancy less its
target. From an address ``a`` the union ``a | {z}`` is ranked by ``w[z]``
ascending, and from a union ``u`` the address ``u`` minus ``{x}`` by
``w[x]`` descending; ties go to the smaller mask. This per-pool key orders
the candidates exactly as the variance of ``target`` minus the occupancy of
the path extended by the candidate would, since the candidates differ in
one pool. The first union after the start address is drawn at random. The
order is lazy: it finds the best union and address by ``min`` and ``max``
and sorts the rest only on backtrack. It charges each union when it opens
it, yielded addresses or not, so union and address visits both count
against the budget, which makes runs deterministic and hardware
independent. A path that reaches n addresses is the code; a dead end
backtracks.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, Iterator, Sequence

from .codes import GrayCode, length_bound, _check_pool_count, _set_bits
from .errors import BudgetExhaustedError, InfeasibleError
from .validate import validate

DEFAULT_BUDGET = 10**6
# The oracles' default, kept here so the CLI parser need not import graypool.oracle.
DEFAULT_NODE_LIMIT = 10**7


def balance_target(m: int, r: int, n: int) -> tuple[int, ...]:
    """Near-uniform occupancy target: floor(r*n/m) per pool, remainder on the first pools.

    The result always sums to exactly n*r and spreads counts within 1 of
    each other.
    """
    w, rem = divmod(r * n, m)
    return tuple(w + 1 if i < rem else w for i in range(m))


class SearchBudget:
    """Node-visit counter shared by cooperating searches, with an optional deadline.

    ``time_limit`` is in seconds; only None means no deadline.
    """

    __slots__ = ("limit", "spent", "deadline")

    def __init__(self, limit: int, time_limit: float | None = None):
        if limit < 1:
            raise ValueError("budget must be positive")
        if time_limit is not None and not time_limit > 0:
            raise ValueError(f"time limit must be positive, got {time_limit}")
        self.limit = limit
        self.spent = 0
        self.deadline = time.monotonic() + time_limit if time_limit is not None else None

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExhaustedError(f"node-visit budget of {self.limit} exhausted")
        if self.deadline is not None and not (self.spent & 1023):
            if time.monotonic() > self.deadline:
                raise BudgetExhaustedError("time limit exceeded")


def _check_request(m: int, r: int, n: int) -> None:
    """Reject an (m, r, n) request that no search needs to run for."""
    _check_pool_count(m)
    if not 1 <= r < m:
        raise ValueError(f"weight must satisfy 1 <= r < m, got r={r}, m={m}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n > length_bound(m, r):
        raise InfeasibleError(
            f"n={n} exceeds the length bound {length_bound(m, r)} for (m={m}, r={r})"
        )


def _checked(code: GrayCode, n: int) -> GrayCode:
    """Return a constructed code once ``validate`` passes it and it has length n."""
    report = validate(code)
    if not report.is_valid or code.n != n:
        found = f"n={code.n} of {n}, {list(report.violations[:3])}"
        raise RuntimeError(f"internal error: constructed code fails validation: {found}")
    return code


def _path_search(
    start: int,
    budget: SearchBudget,
    order: Callable[[list[int], set[int], list[int] | None], Iterable[int]],
    goal: Callable[[list[int], list[int] | None], bool],
    occupancy: list[int] | None,
) -> tuple[list[int], list[int] | None] | None:
    """Depth-first search over the address paths that begin at ``start``.

    ``order(path, used, w)`` yields the addresses ``b`` to try after the
    path's tip, best first, leaving out those the path already uses and
    those whose union ``tip | b`` it uses. ``used`` holds the path's
    addresses and unions (their weights differ). ``w`` is ``occupancy``, a
    per-pool start vector that the kernel owns and keeps, in place, at its
    start values plus the path's occupancy; or None, which saves that upkeep
    on every visit for a search whose hooks never read it. The kernel
    consumes ``order`` lazily, and the path is back in the same state each
    time it asks for the next address. Every address entered, ``start``
    included, is charged to ``budget`` before ``goal(path, w)`` is asked; a
    true goal ends the search and returns the path. Otherwise the path is
    extended by what ``order`` yields, and an order that yields nothing ends
    the branch: that is how a search bounds its paths. Returns the path and
    ``w``, or None once every path from ``start`` is exhausted. ``order``
    may return a lazy iterator and charge visits of its own: bba's charges
    each union when the iterator reaches it.
    """
    path: list[int] = []
    used: set[int] = set()
    w = occupancy
    spend, enter, leave = budget.spend, used.add, used.discard
    # Per path address, plus one ahead of the start: the candidates not yet
    # tried. The start is its own union, which keeps the loop uniform.
    frames: list[Iterator[int]] = [iter((start,))]
    tip = 0
    while frames:
        b = next(frames[-1], -1)
        if b < 0:
            frames.pop()
            if path:
                a = path.pop()
                tip = path[-1] if path else 0
                leave(a)
                leave(tip | a)
                if w is not None:
                    for i in _set_bits(a):
                        w[i] -= 1
            continue
        spend()
        path.append(b)
        enter(b)
        enter(tip | b)
        tip = b
        if w is not None:
            for i in _set_bits(b):
                w[i] += 1
        if goal(path, w):
            return path, w
        frames.append(iter(order(path, used, w)))
    return None


def _balance_order(
    m: int, rng: random.Random, budget: SearchBudget
) -> Callable[[list[int], set[int], list[int]], Iterator[int]]:
    """bba's candidate order: unions, then their addresses, by the per-pool key.

    The first union is drawn from ``rng`` at the start address and is the
    ``min`` by key elsewhere; a union's first address is the ``max``. The
    rest are keyed and sorted only when the search asks for them, after a
    backtrack, or when that first one is already used, so a search that
    never backtracks builds no list of unions. Each union is charged to
    ``budget`` when it is opened, yielded addresses or not. One generator
    serves a visit: every open path frame holds one, and rcbba's long
    blocks hold thousands.
    """
    full = (1 << m) - 1
    spend = budget.spend

    def order(path: list[int], used: set[int], w: list[int]) -> Iterator[int]:
        a = path[-1]
        # The pools outside the tip are listed again on backtrack, not kept in
        # the open frame, whose memory then does not grow with m.
        if len(path) == 1:
            z = _set_bits(full ^ a)[rng.randrange(m - a.bit_count())]
        else:
            z = min(_set_bits(full ^ a), key=w.__getitem__)
        unions = None
        while True:
            # Only the first union can be used already; the rest are fresh.
            u = a | 1 << z
            if u not in used:
                spend()
                pools = _set_bits(u)[::-1]
                x = max(pools, key=w.__getitem__)
                if u ^ 1 << x not in used:
                    yield u ^ 1 << x
                rest = [y for y in pools if y != x and u ^ 1 << y not in used]
                for y in sorted(rest, key=w.__getitem__, reverse=True):
                    yield u ^ 1 << y
            if unions is None:
                others = [y for y in _set_bits(full ^ a) if y != z and a | 1 << y not in used]
                unions = iter(sorted(others, key=w.__getitem__))
            z = next(unions, -1)
            if z < 0:
                return

    return order


def _construct_masks(
    m: int,
    r: int,
    n: int,
    first_mask: int | None,
    target: Sequence[int],
    rng: random.Random,
    budget: SearchBudget,
) -> tuple[list[int], list[int]]:
    """Run the balance-guided path search from one start address.

    The start is ``first_mask`` when pinned and otherwise a uniform draw
    from ``rng``. Returns the code's masks and its per-pool occupancy
    counts. Within ``length_bound(m, r)`` the search cannot run out of
    candidates: (1) ``_check_request`` rejects every longer n, and is the
    one place that reports ``infeasible``; (2) every n up to the bound has
    a code, since ``build_maximal`` meets the bound (the middle levels
    theorem) and a prefix of a code is a code; (3) one start is as good as
    every start, since relabelling the pools carries any weight-r address
    onto any other and keeps codes valid; (4) the order only ranks
    candidates and never drops one, so the search from that start is
    complete for any target. rcbba's blocks and closing searches stay
    within the bound of their own width. An exhausted search is therefore
    an internal error.
    """
    if first_mask is None:
        first_mask = sum(1 << p for p in rng.sample(range(m), r))
    order = _balance_order(m, rng, budget)
    start = [-t for t in target]
    found = _path_search(first_mask, budget, order, lambda path, w: len(path) == n, start)
    if found is None:
        raise RuntimeError(f"internal error: search exhausted for ({m},{r},{n})")
    masks, w = found
    return masks, [d + t for d, t in zip(w, target)]


def bba(
    m: int,
    r: int,
    n: int,
    first_address: int | None = None,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    time_limit: float | None = None,
) -> GrayCode:
    """Construct an (m, r, n) code by balance-guided depth-first search.

    ``first_address``, a weight-r mask over the m pools, pins the first
    address; otherwise it is drawn uniformly from the weight-r masks using
    ``seed``. The search steers each pool's occupancy towards the
    near-uniform target of ``balance_target``.

    Raises InfeasibleError when ``n`` exceeds the length bound (within it a
    code always exists; see ``_construct_masks``) and BudgetExhaustedError
    when the node-visit budget (or ``time_limit`` seconds) runs out first.
    """
    _check_request(m, r, n)
    if first_address is not None:
        if first_address < 0 or first_address.bit_length() > m:
            raise ValueError(f"first address {first_address:#x} out of range for m={m}")
        if first_address.bit_count() != r:
            raise ValueError(f"first address must have weight {r}")
    rng = random.Random(seed)
    state = SearchBudget(budget, time_limit)
    masks, _ = _construct_masks(m, r, n, first_address, balance_target(m, r, n), rng, state)
    return _checked(GrayCode(m, r, masks), n)
