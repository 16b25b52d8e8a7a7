"""Combination calculus: growing long codes out of short ones.

A code over m pools whose last address is contained in the first address of
a code over the same pools with weight one higher can be concatenated after
augmenting the lighter code with an all-one row and the heavier one with an
all-zero row; the result is a code over m+1 pools (``combine_pair``). Row
permutations preserve validity, closing unions extend a code's union path by
one, and complementing a full union path flips a code between weights r and
m-r-1. ``rcbba`` drives these pieces: it repeatedly builds short codes with
the branch-and-bound constructor, augments and permutes them so each one
exactly fills the occupancy target of one pool, and concatenates, switching
to a single balance-targeted search over the pools left at the closing width:
the narrowest width from 2r up where the remaining length fits, else all m
pools (``_closing_width``). ``build_maximal`` uses the same calculus to
reach the length bound exactly, combining codes down to built (2r+1, r)
bases: each base is a Hamilton cycle of the middle-levels graph, which
exists for every r by the middle levels theorem (Mütze, Proc. LMS 2016;
Gregor, Mütze & Nummenpalo, Discrete Analysis 2018), and is built from two
perfect matchings glued along 6-cycles, with no search.
Only what can fail is guarded: an rcbba join is checked against the block
it leaves alone (``_RecursiveCombiner``), and the flip's leading union has
a proven closed form (``_maximal_by_flip``): build_maximal fails only on a stalled base.
``_pool_table`` is the one place where a block's pools are relabelled, for
rcbba's blocks, its closing search and ``build_maximal``'s combinations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, takewhile
from math import comb
from typing import Iterator, Sequence

from .bba import (
    DEFAULT_BUDGET,
    SearchBudget,
    _check_request,
    _checked,
    _construct_masks,
    balance_target,
)
from .codes import GrayCode, length_bound, _set_bits, _unions
from .errors import ConstructionError, NoJoiningAddressError


def combine_pair(light: GrayCode, heavy: GrayCode) -> GrayCode:
    """Concatenate an (m, r-1) code and an (m, r) code into an (m+1, r) code.

    Preconditions: the codes share their pool count, the weights differ by
    exactly one, the last address of the lighter code is contained in the
    first address of the heavier code, and their union (which equals that
    first address) differs from every consecutive union of the lighter code.
    """
    if light.n == 0 or heavy.n == 0:
        raise ValueError("combination requires two non-empty codes")
    if light.m != heavy.m:
        raise ValueError(f"pool counts differ: {light.m} versus {heavy.m}")
    if heavy.r != light.r + 1:
        raise ValueError(f"weights must differ by one: got {light.r} and {heavy.r}")
    tail = light.masks[-1]
    head = heavy.masks[0]
    if tail | head != head:
        raise ValueError(
            "subset condition failed: the last address of the lighter code is "
            "not contained in the first address of the heavier code"
        )
    for j, u in enumerate(_unions(light.masks), start=1):
        if u == head:
            raise ValueError(f"joining union duplicates consecutive union {j} of the lighter code")
    m = light.m + 1
    ones = 1 << (m - 1)
    return GrayCode(m, heavy.r, tuple(bits | ones for bits in light.masks) + heavy.masks)


def apply_row_permutation(code: GrayCode, perm: Sequence[int]) -> GrayCode:
    """Relabel pools: pool i of the input becomes pool ``perm[i-1]`` of the output."""
    if sorted(perm) != list(range(1, code.m + 1)):
        raise ValueError(f"not a permutation of 1..{code.m}: {list(perm)}")
    table = [p - 1 for p in perm]
    return GrayCode(code.m, code.r, [_remap_mask(bits, table) for bits in code.masks])


def _remap_mask(mask: int, table: Sequence[int]) -> int:
    return sum(1 << table[i] for i in _set_bits(mask))


def flip_complement(code: GrayCode, closing: int) -> GrayCode:
    """Complement the union path (u_1, ..., u_{n-1}, closing mask) bit by bit.

    The complements form an (m, m-r-1, n) code: adjacent path unions share
    exactly the address between them, so their complements sit at Hamming
    distance 2 and their pairwise unions are the complements of the original
    addresses a_2, ..., a_n.
    """
    if code.n == 0:
        raise ValueError("cannot flip an empty code")
    if closing < 0 or closing.bit_length() > code.m:
        raise ValueError(f"closing union {closing:#x} out of range for m={code.m}")
    if closing | code.masks[-1] != closing:
        raise ValueError("closing union must contain the last address")
    if closing.bit_count() != code.r + 1:
        raise ValueError(f"closing union must have weight {code.r + 1}")
    path = _unions(code.masks) + [closing]
    if closing in path[:-1]:
        raise ValueError("closing union duplicates a consecutive union of the code")
    full = (1 << code.m) - 1
    return GrayCode(code.m, code.m - code.r - 1, [full ^ u for u in path])


@dataclass(frozen=True)
class CombinationTrace:
    """How a recursive combination run assembled its output.

    ``component_lengths`` lists every block length in append order, final
    block included. ``consumed_pools`` lists, per iterative block, the pool
    whose occupancy target that block filled exactly. ``final_target`` and
    ``final_balance`` are the occupancy target handed to the closing search
    and the occupancy it achieved (both in the closing block's own pool
    order); ``deviation_bound`` is the guaranteed ceiling
    2*max|final_balance - final_target| + 2 on the full code's deviation,
    or None when the construction finished before a closing block was needed.
    """

    component_lengths: tuple[int, ...]
    consumed_pools: tuple[int, ...]
    final_target: tuple[int, ...]
    final_balance: tuple[int, ...]

    @property
    def deviation_bound(self) -> int | None:
        if not self.final_target:
            return None
        gap = max(abs(b - t) for b, t in zip(self.final_balance, self.final_target))
        return 2 * gap + 2

    def to_json_dict(self) -> dict:
        return {
            "component_lengths": list(self.component_lengths),
            "consumed_pools": list(self.consumed_pools),
            "final_target": list(self.final_target),
            "final_balance": list(self.final_balance),
            "deviation_bound": self.deviation_bound,
        }


class _RecursiveCombiner:
    """Backtracking driver for the iterative combination construction.

    Blocks are placed from width m down to the closing width, where one
    search builds the rest (``_closing_width``). At a closing width of m
    there are no iterative blocks: the closing search builds the whole code.

    The unions stay distinct with no set of them all. Every union inside
    iterative block j, and the join leaving it, holds the pool p_j that the
    block consumes; nothing placed after block j holds p_j. So unions of
    different blocks differ (the closing block's hold no consumed pool),
    and a join can only repeat a union of the block it leaves, which
    ``_join_candidates`` checks. ``rcbba_detailed`` still validates the code.

    Pools are 0-based bit positions throughout; only ``trace`` reports them 1-based.
    """

    def __init__(self, m, r, n, w_ini, rng, budget):
        self.m = m
        self.r = r
        self.n = n
        self.final_width = _closing_width(m, r, n)
        self.rng = rng
        self.budget = budget
        self.masks: list[int] = []
        self.w_res = list(w_ini)
        self.active = (1 << m) - 1  # the pools no placed block has consumed
        self.consumed: list[int] = []
        self.lengths: list[int] = []
        self.final_target: tuple[int, ...] = ()
        self.final_balance: tuple[int, ...] = ()

    def run(self) -> list[int]:
        """Place blocks from width m down, backtracking over joining addresses.

        Each placed block keeps the joining addresses still to try for the
        block after it; a block with none left is taken off again, and the
        block before it tries its next one.
        """
        stack: list[tuple[list, Iterator[tuple[int, int]]]] = []
        width, join_mask, comp_len = self.m, None, self.w_res[self.m - 1]
        while True:
            if width == self.final_width:
                if self._final(width, join_mask):
                    return self.masks
            else:
                charged = self._place_block(width, join_mask, comp_len)
                # A block that lands exactly on the target length finishes
                # the build without a closing regime.
                if len(self.masks) == self.n:
                    return self.masks
                stack.append((charged, iter(self._join_candidates(width - 1))))
            while stack:
                step = next(stack[-1][1], None)
                if step is not None:
                    break
                self._remove_block(stack.pop()[0])
            else:
                raise NoJoiningAddressError(
                    f"all joining addresses exhausted for (m={self.m}, r={self.r}, n={self.n})"
                )
            join_mask, comp_len = step
            width = self.m - len(stack)

    def trace(self) -> CombinationTrace:
        return CombinationTrace(
            tuple(self.lengths),
            tuple(pool + 1 for pool in self.consumed),
            self.final_target,
            self.final_balance,
        )

    # -- iteration ----------------------------------------------------------

    def _place_block(self, width: int, join_mask: int | None, comp_len: int) -> list:
        """Search and append the block for the iteration with ``width`` active
        pools; returns the (pool, count) charges ``_remove_block`` refunds.

        The first block has no joining address and keeps its own labels. The
        block's occupancy, the all-one row's ``comp_len`` included, is charged
        to the residuals through its pool table. ``comp_len`` is within the
        block's length bound, so the search finds a block.
        """
        target = balance_target(width - 1, self.r - 1, comp_len)
        elem, counts = _construct_masks(
            width - 1, self.r - 1, comp_len, None, target, self.rng, self.budget
        )
        ones = 1 << (width - 1)
        first = elem[0] | ones
        table = _pool_table(first, first if join_mask is None else join_mask, self.active, self.m)
        self.masks.extend(_remap_mask(bits | ones, table) for bits in elem)
        charged = list(zip(table, [*counts, comp_len]))
        for pool, count in charged:
            self.w_res[pool] -= count
        # The all-one row is the block's top row; its pool has met its target.
        self.active ^= 1 << table[width - 1]
        self.consumed.append(table[width - 1])
        self.lengths.append(comp_len)
        return charged

    def _remove_block(self, charged: list[tuple[int, int]]) -> None:
        del self.masks[len(self.masks) - self.lengths.pop():]
        self.active |= 1 << self.consumed.pop()
        for pool, count in charged:
            self.w_res[pool] += count

    def _final(self, width: int, join_mask: int | None) -> bool:
        """Closing regime: one balance-targeted search over the remaining pools.

        At least one address is still needed: ``run`` stops once the masks
        reach n, and every iterative block fits in the remaining length.
        With no joining address the closing block keeps its own labels.
        """
        need = self.n - len(self.masks)
        if need > length_bound(width, self.r):
            return False
        start = sum(1 << p for p in self.rng.sample(range(width), self.r))
        table = _pool_table(start, start if join_mask is None else join_mask, self.active, self.m)
        target = tuple(self.w_res[table[i]] for i in range(width))
        elem, counts = _construct_masks(width, self.r, need, start, target, self.rng, self.budget)
        self.masks.extend(_remap_mask(bits, table) for bits in elem)
        self.lengths.append(need)
        self.final_target = target
        self.final_balance = tuple(counts)
        return True

    # -- joining addresses ----------------------------------------------------

    def _join_candidates(self, width: int) -> list[tuple[int, int]]:
        """Admissible first addresses for the next block, best occupancy first.

        A joining address must use only still-active pools, sit at Hamming
        distance 2 from the last placed address, and form a fresh union with
        it. Since every column of the block just placed contains the pool that
        block consumed, the joining address is that last address with the
        consumed pool swapped for another active pool, and its union can only
        repeat one of that block's. Candidates are ordered by the residual
        occupancy of their largest pool, descending, with index-order
        tie-breaks; that residual is the next block's length.
        """
        last = self.masks[-1]
        core = last & ~(1 << self.consumed[-1])
        taken = set(_unions(self.masks[-self.lengths[-1]:]))
        # An iterative block must fit the remaining length and its own bound.
        cap = min(self.n - len(self.masks), length_bound(width - 1, self.r - 1))
        out = []
        for z in _set_bits(self.active & ~last):
            candidate = core | 1 << z
            if (last | candidate) in taken:
                continue
            next_len = self.w_res[candidate.bit_length() - 1]
            if width > self.final_width and not 1 <= next_len <= cap:
                continue
            out.append((candidate, next_len))
        out.sort(key=lambda t: -t[1])
        return out


# The closing width must hold its estimated remaining length with room to
# spare: the estimate may be at most 4/5 of the width's length bound. A
# ratio of ints keeps the test exact where C(m, r) overflows a float.
_FIT_NUM, _FIT_DEN = 4, 5


def _closing_width(m: int, r: int, n: int) -> int:
    """The narrowest width w >= 2r whose remaining length fits, else m.

    r = 1, m <= 2r and n*r < m leave no iterative block: they close at m.
    Otherwise each block takes about a share r/j of what is left at width
    j, so the length left for a closing at width w is about
    n*prod_{j=w+1..m}(1 - r/j) = n*C(w, r)/C(m, r). Above 2r the bound is
    C(w, r), so the estimate over the bound is n/C(m, r) at every such
    width: 2r+1 fits exactly when m does.
    """
    if r == 1 or m <= 2 * r or n * r < m:
        return m
    total = comb(m, r)
    if _FIT_DEN * n * comb(2 * r, r) <= _FIT_NUM * length_bound(2 * r, r) * total:
        return 2 * r
    return 2 * r + 1 if _FIT_DEN * n <= _FIT_NUM * total else m


def _pool_table(src: int, dst: int, active: int, m: int) -> list[int]:
    """The one pool relabelling: row i of a block becomes pool ``table[i]``.

    The block spans the lowest ``active.bit_count()`` rows. Its rows in
    ``src`` go onto the pools of ``dst`` in ascending order, its other rows
    onto the rest of ``active`` in ascending order, and the rows above the
    block onto the pools outside ``active``. All masks are 0-based; ``src``
    must lie in the block's rows, ``dst`` in ``active``, and the two must
    have equal weight.
    """
    rows = (1 << active.bit_count()) - 1
    full = (1 << m) - 1
    table = [0] * m
    for rows_from, pools_to in ((src, dst), (rows ^ src, active ^ dst), (full ^ rows, full ^ active)):
        for s, d in zip(_set_bits(rows_from), _set_bits(pools_to)):
            table[s] = d
    return table


def rcbba_detailed(
    m: int,
    r: int,
    n: int,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    time_limit: float | None = None,
) -> tuple[GrayCode, CombinationTrace]:
    """Recursive combination with embedded branch-and-bound, with its trace.

    Iteration j runs from m downward: each step builds a (j-1, r-1) block
    whose length is the residual occupancy of one pool, augments it with one
    all-one row and m-j all-zero rows, and permutes it so the all-one row
    fills exactly that pool. At the closing width the remaining length is
    built by a single balance-targeted search and the occupancy residuals
    become its per-pool target. Dead ends backtrack over the candidate
    joining addresses; the node budget is shared by every embedded search.

    The closing width is the narrowest w >= 2r at which the estimated
    remaining length n*prod_{j=w+1..m}(1 - r/j) is at most 4/5 of
    ``length_bound(w, r)``, else m; it is m for r = 1, m <= 2r and n*r < m.
    At m there is no iterative block, and the closing search builds the
    whole code towards the ``balance_target`` of (m, r, n).
    """
    _check_request(m, r, n)
    state = SearchBudget(budget, time_limit)
    builder = _RecursiveCombiner(m, r, n, balance_target(m, r, n), random.Random(seed), state)
    return _checked(GrayCode(m, r, builder.run()), n), builder.trace()


def rcbba(
    m: int,
    r: int,
    n: int,
    *,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
    time_limit: float | None = None,
) -> GrayCode:
    """Like ``rcbba_detailed`` but returning only the code."""
    code, _ = rcbba_detailed(m, r, n, seed=seed, budget=budget, time_limit=time_limit)
    return code


def build_maximal(m: int, r: int, *, seed: int = 0) -> GrayCode:
    """Construct a code meeting the length bound exactly.

    For m >= 2r+1 the code has length C(m, r): it is assembled recursively by
    combining the maximal (m-1, r-1) code with the row-permuted maximal
    (m-1, r) code, down to singleton chains at weight 1 and built bases at
    m = 2r+1. A base is a Hamilton cycle of the middle-levels graph, which
    exists for every r by the middle levels theorem (Mütze 2016), so no base
    is searched for. For m <= 2r the bound is C(m, r+1)+1 and the code is the
    complement of a maximal union path of the (m, m-r-1) construction,
    extended by one closing union at each end. ``seed`` draws the pool
    permutation that relabels each base.
    """
    _check_request(m, r, 1)
    rng = random.Random(seed)
    if m >= 2 * r + 1:
        code, _ = _maximal_with_closing(m, r, rng)
    else:
        code = _maximal_by_flip(m, r, rng)
    return _checked(code, length_bound(m, r))


def _maximal_with_closing(m, r, rng) -> tuple[GrayCode, int]:
    """Maximal (m, r) code for m >= 2r+1 together with a closing union mask.

    An (m', r') code above the bases is the (m'-1, r'-1) code combined with
    the (m'-1, r') one. The codes that (m, r) needs are found first and then
    built bottom up, in ascending (m', r'). That builds the bases
    (2r'+1, r') in ascending r', the order in which a depth-first descent,
    lighter code first, would reach them, so each draws the same numbers
    from ``rng``.
    """
    needed = {(m, r)}
    for mm in range(m, 2, -1):
        for rr in range(r, 1, -1):
            if (mm, rr) in needed and mm > 2 * rr + 1:
                needed.update(((mm - 1, rr - 1), (mm - 1, rr)))
    built: dict[tuple[int, int], tuple[GrayCode, int]] = {}
    for mm, rr in sorted(needed):
        if rr == 1:
            code = GrayCode(mm, 1, [1 << i for i in range(mm)])
            closing = 1 | 1 << (mm - 1)
        elif mm == 2 * rr + 1:
            code, closing = _maximal_base(mm, rr, rng)
        else:
            light, light_closing = built[mm - 1, rr - 1]
            heavy, heavy_closing = built[mm - 1, rr]
            # Relabel the heavy code so that it starts on the light code's
            # closing union; every pool stays in use.
            table = _pool_table(heavy.masks[0], light_closing, (1 << (mm - 1)) - 1, mm - 1)
            heavy = GrayCode(mm - 1, rr, tuple(_remap_mask(x, table) for x in heavy.masks))
            code = combine_pair(light, heavy)
            # The heavy code's closing union survives the relabelling, with the
            # appended row at zero.
            closing = _remap_mask(heavy_closing, table)
        built[mm, rr] = code, closing
    return built[m, r]


def _maximal_base(m, r, rng) -> tuple[GrayCode, int]:
    """Build a maximal (2r+1, r) code and its closing union, with no search.

    The middle-levels graph joins each weight-r address to the r+1
    weight-(r+1) unions that contain it. A maximal code with a closing union
    is a Hamilton cycle of that graph: its addresses in code order, each
    consecutive union between two of them, and the closing union between the
    last address and the first. Two edge-disjoint perfect matchings make a
    2-factor, ``_glue`` joins its cycles into one, and cutting that cycle at
    a union leaves the code with that union as its closing union. The pools
    are then relabelled by a permutation drawn from ``rng``.
    """
    addresses = [sum(1 << i for i in pools) for pools in combinations(range(m), r)]

    def ups(a):
        return [a | 1 << z for z in range(m) if not a >> z & 1]

    first = _perfect_matching(addresses, ups)
    second = _perfect_matching(addresses, lambda a: [u for u in ups(a) if u != first[a]])
    # Each vertex, address or union, lists its two neighbours on its cycle.
    cycles = {v: [first[v], second[v]] for v in first}
    _glue(cycles, addresses)
    start = addresses[0]
    closing = cycles[start][0]
    path = list(takewhile(lambda v: v != closing, _around(cycles, closing, start)))
    perm = rng.sample(range(m), m)
    return (
        GrayCode(m, r, tuple(_remap_mask(a, perm) for a in path[::2])),
        _remap_mask(closing, perm),
    )


def _perfect_matching(addresses, ups) -> dict[int, int]:
    """Match every address to one of the unions ``ups`` lists for it.

    The result maps each address to its union and each union to its address.
    Addresses join one at a time along an augmenting path found breadth
    first. Both graphs matched here, the middle-levels graph and that graph
    less one perfect matching, are regular and bipartite, so by Hall's
    theorem every address finds a path.
    """
    mate: dict[int, int] = {}
    for root in addresses:
        reached: dict[int, int] = {}  # union -> the address it was reached from
        queue = [root]
        free = None
        for a in queue:
            for u in ups(a):
                if u in reached:
                    continue
                reached[u] = a
                if u not in mate:
                    free = u
                    break
                queue.append(mate[u])
            if free is not None:
                break
        if free is None:
            raise RuntimeError("internal error: no augmenting path in a regular bipartite graph")
        while free is not None:
            a = reached[free]
            mate[free], mate[a], free = a, free, mate.get(a)
    return mate


def _glue(cycles: dict[int, list[int]], addresses: list[int]) -> None:
    """Join the cycles of the 2-factor ``cycles`` into one, in place.

    Each step flips an alternating 6-cycle (``_six_cycles``): its three
    2-factor edges leave the 2-factor and its other three edges enter. When
    the three 2-factor edges lie on three distinct cycles the flip always
    joins them into one. When they lie on two, it joins them only for one of
    the two orders in which the doubled cycle can run (``_joins_two``). A
    first sweep takes only three-cycle flips, which need no walk; later
    sweeps take both. Cycle ids merge in a union-find over the start
    addresses of the first labelling.
    """
    label: dict[int, int] = {}
    for v in addresses:
        for w in _around(cycles, cycles[v][1], v):
            if w in label:
                break
            label[w] = v
    root = {v: v for v in set(label.values())}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    count = len(root)
    for two_cycle in (False, True):
        merged = True
        while merged and count > 1:
            merged = False
            for a in addresses:
                for six in _six_cycles(cycles, a):
                    ids = [find(label[v]) for v in six[::2]]
                    distinct = len(set(ids))
                    if distinct == 3 or (
                        two_cycle and distinct == 2 and _joins_two(cycles, six, ids)
                    ):
                        _flip(cycles, six)
                        for i in ids:
                            root[i] = ids[0]
                        count -= distinct - 1
                        merged = True
                        break
    if count > 1:
        r = addresses[0].bit_count()
        raise ConstructionError(
            f"gluing the ({2 * r + 1},{r}) middle-levels 2-factor stalled with {count} cycles left"
        )


def _around(cycles, prev, cur) -> Iterator[int]:
    """Walk ``cur``'s cycle from ``cur`` onward, away from its neighbour ``prev``; endless."""
    while True:
        yield cur
        left, right = cycles[cur]
        prev, cur = cur, right if left == prev else left


def _six_cycles(cycles, a) -> Iterator[tuple[int, ...]]:
    """The alternating 6-cycles at address ``a`` that start on a 2-factor edge.

    Each is (a, u, b, w, c, t) = (S+x, S+x+y, S+y, S+y+z, S+z, S+z+x) for a
    weight-(r-1) set S and three pools x, y, z outside it. The edges a-u,
    b-w and c-t lie in the 2-factor; u-b, w-c and t-a do not.
    """
    for u in cycles[a]:
        y = u ^ a
        for x in _set_bits(a):
            s = a ^ 1 << x
            b = s | y
            if b in cycles[u]:
                continue
            for w in cycles[b]:
                z = w ^ b
                c, t = s | z, a | z
                if t in cycles[c] and c not in cycles[w] and a not in cycles[t]:
                    yield a, u, b, w, c, t


def _joins_two(cycles, six, ids) -> bool:
    """Whether flipping ``six``, whose 2-factor edges lie on two cycles, joins them.

    Rotated so that its edges v0-v1 and v2-v3 lie on one cycle, the flip
    joins iff that cycle, walked from v1 away from v0, meets v3 before v2;
    otherwise v1-v2 closes a cycle of its own. Walked from v0 away from v1
    it then meets v2 first. Both walks run in step and the first to arrive
    decides.
    """
    shift = 0 if ids[0] == ids[1] else 2 if ids[1] == ids[2] else 4
    v0, v1, v2, v3 = (six[shift:] + six[:shift])[:4]
    for ahead, back in zip(_around(cycles, v0, v1), _around(cycles, v1, v0)):
        if ahead in (v2, v3):
            return ahead == v3
        if back in (v2, v3):
            return back == v2


def _flip(cycles, six) -> None:
    """Swap the 6-cycle's 2-factor edges a-u, b-w, c-t for u-b, w-c, t-a."""
    a, u, b, w, c, t = six
    for v, old, new in ((a, u, t), (u, a, b), (b, w, u), (w, b, c), (c, t, w), (t, c, a)):
        row = cycles[v]
        row[row.index(old)] = new


def _maximal_by_flip(m, r, rng) -> GrayCode:
    """Maximal (m, r) code for r+1 <= m <= 2r via a complemented union path.

    For r+1 < m the path is the maximal (m, s) code's, s = m-r-1, led by
    ``first | {2}`` for its first address ``first`` and closed by ``tail``.
    As m >= 2s+2, the chain of lighter codes (m, s), (m-1, s-1), ... never
    meets a base and ends at the singleton code (m-s+1, 1). So ``first`` is
    pool 0 plus the top s-1 pools, and of its supersets only two are used,
    that code's {0, 1} and closing {0, m-s} plus those pools (the next join,
    or ``tail`` for s = 1). As m-s >= s+2 >= 3, ``first | {2}`` is fresh.
    """
    full = (1 << m) - 1
    if r == m - 1:
        # One union fits: the all-one vector between the complements of two singletons.
        return GrayCode(m, r, [full ^ 1, full ^ 2])
    src_r = m - r - 1
    src, tail = _maximal_with_closing(m, src_r, rng)
    # The address ``first`` less pool 0 plus pool 2, placed before the source,
    # makes ``first | {2}`` the path's first union; only unions are complemented.
    return flip_complement(GrayCode(m, src_r, (src.masks[0] ^ 0b101,) + src.masks), tail)
