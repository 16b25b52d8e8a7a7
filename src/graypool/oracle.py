"""Exhaustive ground truth for small parameter sets.

Complete depth-first enumerations of the codes that start at {1..r}, used
to pin down the exact maximum code length and the exact optimum balance
deviation that the heuristic constructors are measured against. Both run
on bba's path-search kernel: from each address they try the next addresses
in ascending index-tuple order, skip used addresses and unions, and charge
every address visit to a ``SearchBudget`` whose limit is the node limit;
``search_nodes`` is the number of visits. Each search keeps a move memo:
an address's (union, neighbour) pairs are listed once, on its first visit,
and later visits only filter that list. Exponential by design; keep the
address count small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .bba import DEFAULT_NODE_LIMIT, SearchBudget, _check_request, _path_search
from .codes import GrayCode, length_bound, _check_pool_count, _set_bits
from .errors import BudgetExhaustedError


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exhaustive maximum-length search.

    ``is_exact`` is False only when the node limit cut the search short, in
    which case ``max_length`` is a lower bound witnessed by ``witness``.
    """

    max_length: int
    witness: GrayCode
    search_nodes: int
    is_exact: bool


def _index_order(m: int) -> Callable[[list[int], set[int], list[int] | None], Sequence[int]]:
    """The oracles' candidate order, with one move memo per search.

    ``order(path, used, w)`` lists the unused addresses ``b = a - x + z``
    next to the tip ``a`` whose union ``a + z`` is unused too, in ascending
    index-tuple order. On an address's first visit the memo stores its
    ``(union, neighbour)`` pairs in that order; later visits filter them.
    """
    moves: dict[int, list[tuple[int, int]]] = {}
    full = (1 << m) - 1

    def order(path: list[int], used: set[int], w: list[int] | None) -> Sequence[int]:
        a = path[-1]
        pairs = moves.get(a)
        if pairs is None:
            outside = _set_bits(full ^ a)
            pairs = moves[a] = sorted(
                ((a | 1 << z, a ^ (1 << x | 1 << z)) for x in _set_bits(a) for z in outside),
                key=lambda pair: _set_bits(pair[1]),
            )
        return [b for u, b in pairs if u not in used and b not in used]

    return order


def _search(
    m: int,
    r: int,
    node_limit: int,
    order: Callable[[list[int], set[int], list[int] | None], Sequence[int]],
    goal: Callable[[list[int], list[int] | None], bool],
    occupancy: list[int] | None,
) -> tuple[bool, int]:
    """Run the kernel from {1..r} until ``goal`` holds or every path is done.

    One start is complete: relabelling the pools carries any weight-r
    address onto {1..r} and keeps codes valid and their deviation, so
    completeness comes from pool symmetry, not from trying every start.
    The kernel keeps the occupancy ``w``, from the start vector
    ``occupancy``, only when that is not None.
    Returns whether the search finished within ``node_limit`` and the
    number of nodes it visited.
    """
    if node_limit < 1:
        raise ValueError(f"node limit must be positive, got {node_limit}")
    budget = SearchBudget(node_limit)
    try:
        _path_search((1 << r) - 1, budget, order, goal, occupancy)
    except BudgetExhaustedError:
        return False, budget.spent
    return True, budget.spent


def exhaustive_max(m: int, r: int, node_limit: int = DEFAULT_NODE_LIMIT) -> OracleResult:
    """Exact maximum code length by complete depth-first enumeration.

    Explores the codes that start at {1..r}, addresses in ascending index
    order with visited-address and visited-union pruning; by row-permutation
    symmetry that start does not change the maximum. The search stops early
    once a code meets the length bound, since nothing longer can exist.
    """
    _check_pool_count(m)
    bound = length_bound(m, r)
    best: list[int] = []

    def goal(path: list[int], w: None) -> bool:
        if len(path) > len(best):
            best[:] = path
        return len(best) == bound

    exact, nodes = _search(m, r, node_limit, _index_order(m), goal, None)
    return OracleResult(len(best), GrayCode(m, r, tuple(best)), nodes, exact)


def exhaustive_best_balance(
    m: int, r: int, n: int, node_limit: int = DEFAULT_NODE_LIMIT
) -> GrayCode:
    """A valid (m, r, n) code of provably minimum deviation.

    Enumerates every valid code of length n that starts at {1..r}, which by
    pool symmetry attains every deviation any code does. The order ends
    branches whose best reachable deviation already matches the incumbent,
    and the search stops early when the parity lower bound (0 when n*r
    divides by m, else 1) is attained. Raises InfeasibleError when ``n``
    exceeds the length bound and BudgetExhaustedError, with the best code
    so far as ``best``, when the limit is hit before the enumeration
    finishes; within the bound it always finds a code (see
    ``bba._construct_masks``).
    """
    _check_request(m, r, n)
    floor_dev = 0 if (n * r) % m == 0 else 1
    best_dev: int | None = None
    best_code: list[int] | None = None

    def goal(path: list[int], w: list[int]) -> bool:
        nonlocal best_dev, best_code
        if len(path) < n:
            return False
        dev = max(w) - min(w)
        if best_dev is None or dev < best_dev:
            best_dev = dev
            best_code = list(path)
        return best_dev == floor_dev

    index_order = _index_order(m)

    def order(path: list[int], used: set[int], w: list[int]) -> Sequence[int]:
        # A full-length path ends here. A pool already ahead by more than the
        # remaining additions can never be caught; end the branch when even
        # the optimistic finish loses.
        if len(path) == n or (best_dev is not None and max(w) - min(w) + len(path) - n >= best_dev):
            return ()
        return index_order(path, used, w)

    exact, _ = _search(m, r, node_limit, order, goal, [0] * m)
    if not exact:
        partial = GrayCode(m, r, tuple(best_code)) if best_code is not None else None
        raise BudgetExhaustedError(
            f"node limit {node_limit} reached before the enumeration finished",
            best=partial,
        )
    if best_code is None:
        raise RuntimeError(f"internal error: enumeration exhausted for ({m},{r},{n})")
    return GrayCode(m, r, tuple(best_code))
