"""Branch-and-bound construction of balanced codes.

The constructor runs a depth-first search over the bipartite graph whose
nodes are the weight-r addresses and the weight-(r+1) unions of adjacent
addresses. From an address the next node is one of its unused unions; from a
union the next node is one of its unused weight-r subsets. Candidates are
tried in ascending order of a balance penalty, the variance of the gap
between a per-pool occupancy target and the occupancy of the path extended
by the candidate, so the search greedily keeps pool usage level and
backtracks out of dead ends. Node visits are charged against a budget, which
makes runs deterministic and hardware independent.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from typing import Sequence

from .codes import Address, GrayCode, length_bound
from .errors import BudgetExhaustedError, ConstructionError, InfeasibleError
from .validate import validate

DEFAULT_BUDGET = 10**6


def balance_target(m: int, r: int, n: int) -> tuple[int, ...]:
    """Near-uniform occupancy target: floor(r*n/m) per pool, remainder on the first pools.

    The result always sums to exactly n*r and spreads counts within 1 of
    each other.
    """
    w, rem = divmod(r * n, m)
    return tuple(w + 1 if i < rem else w for i in range(m))


def balance_penalty(target: Sequence[int], occupancy: Sequence[int]) -> float:
    """Population variance of the residual vector ``target - occupancy``."""
    if len(target) != len(occupancy):
        raise ValueError("vectors must have equal length")
    residual = [t - o for t, o in zip(target, occupancy)]
    mean = sum(residual) / len(residual)
    return sum((x - mean) ** 2 for x in residual) / len(residual)


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


def _path_search(
    m: int,
    r: int,
    n: int,
    start: int,
    target: Sequence[int],
    rng: random.Random,
    budget: SearchBudget,
    union_bits_in_penalty: bool,
) -> list[int] | None:
    """Exhaustive depth-first search for a full-length path starting at ``start``.

    Returns the address bitmasks on success, or None once the subtree rooted
    at ``start`` is exhausted. The very first union after ``start`` is chosen
    at random; every later branching is ordered by penalty with ties kept in
    ascending index order.
    """
    full = (1 << m) - 1
    budget.spend()
    if n == 1:
        return [start]

    w = [0] * m
    bits = start
    while bits:
        low = bits & -bits
        w[low.bit_length() - 1] += 1
        bits ^= low
    visited_a = {start}
    visited_u: set[int] = set()
    apath = [start]

    # The variance penalty compares candidates that share every pool of the
    # current path plus the current tip, so its ordering reduces to a single
    # per-pool key: for a union a|{z} the key is w[z]-target[z] ascending, for
    # an address u\{x} it is target[x]-w[x] ascending.
    def union_options(a: int) -> list[tuple[int, int]]:
        out = []
        free = full & ~a
        while free:
            low = free & -free
            free ^= low
            u = a | low
            if u not in visited_u:
                z = low.bit_length() - 1
                key = w[z] - target[z] if union_bits_in_penalty else 0
                out.append((key, u))
        return out

    def union_candidates(a: int) -> list[int]:
        out = union_options(a)
        out.sort(key=lambda kv: kv[0])
        return [u for _, u in out]

    def address_candidates(u: int) -> list[int]:
        xs = []
        rem = u
        while rem:
            low = rem & -rem
            rem ^= low
            xs.append(low)
        out = []
        for low in reversed(xs):
            b = u ^ low
            if b not in visited_a:
                x = low.bit_length() - 1
                out.append((target[x] - w[x], b))
        out.sort(key=lambda kv: kv[0])
        return [b for _, b in out]

    first_options = union_options(start)
    if not first_options:
        return None
    pick = rng.randrange(len(first_options))
    first_union = first_options.pop(pick)[1]
    first_options.sort(key=lambda kv: kv[0])
    ordered = [first_union] + [u for _, u in first_options]

    # Each frame holds a node on the path and its pending candidate list;
    # True marks an address node (whose candidates are unions).
    frames: list[list] = [[True, start, ordered, 0]]
    while frames:
        frame = frames[-1]
        cands = frame[2]
        i = frame[3]
        if i >= len(cands):
            frames.pop()
            node = frame[1]
            if frame[0]:
                visited_a.discard(node)
                apath.pop()
                bits = node
                while bits:
                    low = bits & -bits
                    w[low.bit_length() - 1] -= 1
                    bits ^= low
            else:
                visited_u.discard(node)
            continue
        frame[3] = i + 1
        node = cands[i]
        budget.spend()
        if frame[0]:
            visited_u.add(node)
            frames.append([False, node, address_candidates(node), 0])
        else:
            visited_a.add(node)
            apath.append(node)
            bits = node
            while bits:
                low = bits & -bits
                w[low.bit_length() - 1] += 1
                bits ^= low
            if len(apath) == n:
                return list(apath)
            frames.append([True, node, union_candidates(node), 0])
    return None


def _construct_masks(
    m: int,
    r: int,
    n: int,
    first_mask: int | None,
    target: Sequence[int],
    rng: random.Random,
    budget: SearchBudget,
    union_bits_in_penalty: bool,
) -> list[int]:
    """Run the path search, falling back over alternative start addresses.

    When no start address is pinned, the first attempt starts from a uniform
    random draw and, if its whole subtree is exhausted, every remaining
    start is tried in ascending index order; within budget the search is
    therefore complete and a final failure proves infeasibility.
    """

    def starts():
        if first_mask is not None:
            yield first_mask
            return
        drawn = 0
        for p in rng.sample(range(m), r):
            drawn |= 1 << p
        yield drawn
        for combo in combinations(range(m), r):
            mask = 0
            for c in combo:
                mask |= 1 << c
            if mask != drawn:
                yield mask

    for a1 in starts():
        found = _path_search(m, r, n, a1, target, rng, budget, union_bits_in_penalty)
        if found is not None:
            return found
    if first_mask is not None:
        raise InfeasibleError(
            f"no ({m},{r},{n}) code exists with the requested first address"
        )
    raise InfeasibleError(f"search exhausted: no ({m},{r},{n}) code exists")


def bba(
    m: int,
    r: int,
    n: int,
    first_address: Address | None = None,
    target_balance: Sequence[int] | None = None,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    union_bits_in_penalty: bool = True,
    time_limit: float | None = None,
) -> GrayCode:
    """Construct an (m, r, n) code by balance-guided depth-first search.

    ``first_address`` pins the first address; otherwise it is drawn uniformly
    from the weight-r vectors using ``seed``. ``target_balance`` is the
    per-pool occupancy target; it defaults to the near-uniform target of
    ``balance_target``. ``union_bits_in_penalty`` controls whether a candidate
    union's own bits count toward the occupancy used in its penalty (the
    default) or are excluded, in which case unions tie and are tried in
    ascending index order.

    Raises InfeasibleError when ``n`` exceeds the length bound or the
    exhaustive search proves no code exists, and BudgetExhaustedError when
    the node-visit budget (or ``time_limit`` seconds) runs out first.

    The union path the search walked is recoverable from the result: it is
    exactly ``consecutive_unions(code)``, since each step's union joins the
    two addresses around it.
    """
    if not 1 <= r < m:
        raise ValueError(f"weight must satisfy 1 <= r < m, got r={r}, m={m}")
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    if n > length_bound(m, r):
        raise InfeasibleError(
            f"n={n} exceeds the length bound {length_bound(m, r)} for (m={m}, r={r})"
        )
    if first_address is not None:
        if first_address.m != m:
            raise ValueError("first address length does not match m")
        if first_address.weight != r:
            raise ValueError(f"first address must have weight {r}")
    if target_balance is None:
        target_balance = balance_target(m, r, n)
    else:
        target_balance = tuple(target_balance)
        if len(target_balance) != m:
            raise ValueError("target balance must have one entry per pool")
        if abs(sum(target_balance) - n * r) >= m:
            raise ValueError(
                f"target balance sums to {sum(target_balance)}, expected about {n * r}"
            )

    rng = random.Random(seed)
    state = SearchBudget(budget, time_limit)
    masks = _construct_masks(
        m,
        r,
        n,
        first_address.bits if first_address is not None else None,
        target_balance,
        rng,
        state,
        union_bits_in_penalty,
    )
    code = GrayCode.from_bitmasks(m, r, masks)
    report = validate(code)
    if not report.is_valid:
        raise RuntimeError(f"internal error: constructed code fails validation: {report.violations[:3]}")
    return code
