"""Decoding of pooled-experiment outcomes against a code.

An error-free outcome activates exactly the r+1 pools of one consecutive
pair's union (or the r pools of one item's address when single positives are
in play). Any other positive-pool count proves an experimental error; the
decoder then narrows the field to the pairs and items still consistent with
the observation. One rule covers both error types: a truth of weight w (r+1
for a pair's union, r for an item's address) is consistent with k observed
pools exactly when at most max(0, w-k) of its pools lie outside them. With
fewer than w pools (false negatives) the truth contains the observation;
with more (false positives) it lies inside it.

The error path does not scan the code. Each query takes the cheaper of two
ways (see ``_MaskLookup``). One enumerates every union or address mask that
could be consistent with the observation and looks each one up in the
decoder's mask tables; its cost depends on m, r and the observation but
not on the code length n. For k observed pools that is C(m-k, r+1-k) union
supersets after a false negative and C(k, r+1) union subsets after a false
positive. The other counts on pool columns (``codes._columns``), one
n-bit int per pool, with big-int operations whose cost grows with n: the
AND of the observed pools' columns after a false negative, the complement
of the OR of the other columns after a false positive. An outcome that
every mask fits, such as the empty one, needs neither. A decoder builds
its columns only once enumerating would have cost it more than the build,
so a one-shot decode of a long code never builds them.

The decoder takes valid codes only: distinct addresses of weight r whose
consecutive unions are distinct and of weight r+1. So each lookup
enumerates masks of one weight, and each mask has one position.

A decoder builds each pair's exact answer on its first outcome and returns
that same frozen instance, which holds only tuples, for every repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, repeat
from math import comb
from operator import and_, or_
from typing import Iterable

from .codes import GrayCode, _columns, _set_bits, _unions, mask_from_indices

EXACT_PAIR = "exact-pair"
EXACT_SINGLE = "exact-single"
ERROR_FALSE_NEGATIVE = "error-false-negative"
ERROR_FALSE_POSITIVE = "error-false-positive"
AMBIGUOUS = "ambiguous"


@dataclass(frozen=True)
class DecodeResult:
    """Interpretation of an outcome.

    ``pair`` is the identified consecutive pair (j, j+1) for exact-pair
    results; ``single`` the identified item for exact-single and ambiguous
    results. ``inferred_error_count`` is the smallest number of errors any
    consistent interpretation needs. ``candidate_pairs`` holds the start
    indices j of consistent pairs (j, j+1); ``candidate_items`` every item
    that appears in a consistent interpretation. Both lists are sorted and
    deduplicated. A decoder may return one exact-pair instance for many
    calls: it is frozen and holds only tuples, so no caller can change it.
    """

    status: str
    pair: tuple[int, int] | None
    single: int | None
    inferred_error_count: int
    candidate_items: tuple[int, ...]
    candidate_pairs: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "pair": list(self.pair) if self.pair else None,
            "single": self.single,
            "inferred_error_count": self.inferred_error_count,
            "candidate_items": list(self.candidate_items),
            "candidate_pairs": list(self.candidate_pairs),
        }


class _Plans(dict[tuple[int, int, int], tuple[range, float, float, bool]]):
    """Query plans for the n masks of weight w over m pools, keyed by
    (k, k_in, spare) for k lit pools, k_in of them among the m pools.

    A plan holds the counts t of pools outside the lit ones that a fitting
    mask can have, taking its other w-t pools from the k_in lit ones; what
    the column query (``_MaskLookup._count``) saves over enumerating, in
    lookups, for a bitset answer and for a list of positions; and whether
    every mask fits, which takes no column operation. With k <= w the column
    query takes k operations, or 4k with a spare pool; with k > w it takes
    m-k_in. An operation costs about 0.5 lookups plus one per 30,000 masks
    (n/30 digits of 30 bits). Listing a found position costs about 1 lookup
    plus one per 10,000 masks, and a lookup finds a mask with probability
    n/C(m, w). A plan is computed on first use.
    """

    def __init__(self, m: int, w: int, n: int):
        super().__init__()
        self.m = m
        self.w = w
        self.n = n

    def __missing__(self, key: tuple[int, int, int]) -> tuple[range, float, float, bool]:
        k, k_in, spare = key
        m, w, n = self.m, self.w, self.n
        counts = range(max(0, w - k_in), min(max(0, w - k) + spare, m - k_in, w) + 1)
        lookups = sum([comb(k_in, w - t) * comb(m - k_in, t) for t in counts])
        if k > w:
            ops = m - k_in
        elif spare:
            ops = 4 * k if k > 1 else 0
        else:
            ops = k
        saving = lookups - ops * (0.5 + n / 30000)
        listing = lookups * n / comb(m, w) * (1 + n / 10000) if n else 0
        plan = self[key] = counts, saving, saving - listing, not ops
        return plan


class _MaskLookup:
    """Finds the masks of one list, all of weight w, that fit an
    observation.

    Holds the decoder's mask list and its mask -> position index, not copies
    of them, and the query plans (``_Plans``). A query answers in one of two
    ways. It can build every mask of weight w that could fit, from the lit
    pools and, only when a mask may take pools outside them, from the other
    pools too, and look each one up in the index. Or it can count on the
    pool columns from ``codes._columns``: for each pool some mask holds, an
    int whose bit j says that the mask at position j holds it (``_count``).

    Each query takes the way its plan says is cheaper. The columns are
    built on first need and only then (rent or buy): the lookup adds up
    what the columns would have saved each query so far, and builds them
    once that reaches the cost of a build, about one lookup per mask for
    each 32 pools. So a decoder that answers a few queries cheap to
    enumerate, as a one-shot decode does, never builds them, and no query
    enumerates more than a build costs.
    """

    __slots__ = ("m", "w", "masks", "index", "_plans", "_every", "_rent", "_columns")

    def __init__(self, m: int, w: int, masks: list[int], index: dict[int, int]):
        self.m = m
        self.w = w
        self.masks = masks
        self.index = index
        self._plans = _Plans(m, w, len(masks))
        self._every = ((1 << len(masks)) - 1) << 1  # bits 1..n: every position
        # What the columns must save, in lookups, before they are built.
        self._rent = len(masks) * (m // 32 + 1)
        self._columns: dict[int, int] | None = None

    def near(self, pmask: int) -> list[int]:
        """Ascending 1-based positions of the masks that fit ``pmask``.

        This one query answers both error types. A mask of weight w fits k
        lit pools exactly when at most max(0, w-k) of its pools lie outside
        them: for k <= w the mask then contains the observation (dropouts),
        for k >= w it lies inside it (extra pools). No mask holds a lit
        pool above m."""
        found = self.find(pmask, 0, True)
        return found if type(found) is list else list(_set_bits(found))

    def find(self, pmask: int, spare: int = 0, listed: bool = False) -> list[int] | int:
        """The masks with at most max(0, w-k) + ``spare`` pools outside the
        k lit pools of ``pmask``, as found: the ascending positions (a list)
        when enumerating costs less, or else the column bitset (an int, bit
        j for position j). ``spare`` is 0, as in ``near``, or 1 when k <= w,
        for the sweep's dropout count. ``listed`` prices the listing of a
        bitset's positions in, for a caller that needs them."""
        full = (1 << self.m) - 1
        low = pmask & full
        counts, for_bits, for_list, every = self._plans[pmask.bit_count(), low.bit_count(), spare]
        if every:
            return self._every  # every mask fits, no column needed
        saving = for_list if listed else for_bits
        if saving > 0:
            if self._columns is None:
                self._rent -= saving
                if self._rent > 0:
                    return self._enumerate(low, full ^ low, counts)
            return self._count(pmask, spare)
        return self._enumerate(low, full ^ low, counts)

    def _enumerate(self, low: int, others: int, counts: range) -> list[int]:
        """Positions of the masks of weight w with t of the pools ``others``
        and w-t of the pools ``low``, for every t in ``counts``: each one is
        built from ``itertools.combinations`` of those pools and looked up."""
        inside = [1 << i for i in _set_bits(low)]
        # A count t > 0 costs C(m-k, t) >= m-k lookups unless t = m-k <= w,
        # so listing the other pools costs no more than enumerating.
        rest = [1 << i for i in _set_bits(others)] if counts and counts[-1] else []
        get = self.index.get
        found: list[int] = []
        for t in counts:
            candidates = list(map(sum, combinations(inside, self.w - t)))
            if t:
                candidates = [h | s for s in map(sum, combinations(rest, t)) for h in candidates]
            # Positions start at 1, so a miss is the only falsy lookup.
            found += filter(None, map(get, candidates))
        found.sort()
        return found

    def _count(self, pmask: int, spare: int) -> int:
        """The answer of ``find`` as a column bitset; builds the columns if
        need be. A lit pool that no mask holds, or that lies above m, reads
        as an empty column."""
        if self._columns is None:
            # Column bits count positions from 1, as ``_every`` does.
            self._columns = {p: c << 1 for p, c in _columns(self.masks).items()}
        every = self._every
        if pmask.bit_count() > self.w:
            # No pool outside the lit ones: none of the other columns.
            others = map(self._columns.get, _set_bits(~pmask & (1 << self.m) - 1), repeat(0))
            return every & ~reduce(or_, others, 0)
        lit = list(map(self._columns.get, _set_bits(pmask), repeat(0)))
        if not spare:
            return reduce(and_, lit, every)
        # Every lit pool but at most one: the OR, over each lit column, of
        # the ANDs of the columns before and after it.
        before = [every, *accumulate(lit, and_)]
        after = [*accumulate(reversed(lit), and_)][::-1]
        return reduce(or_, map(and_, before, after[1:] + [every]))


class PoolDecoder:
    """Reusable decoder for one valid code; precomputes the mask lookup
    tables.

    Raises ``ValueError`` naming the first requirement of a valid code that
    the code fails: on any other code a decoder answer means nothing. Each
    check is one C-level pass over the tables. Once every address has weight
    r, a union of weight r+1 is the same as adjacent addresses at distance 2.
    """

    def __init__(self, code: GrayCode):
        self.code = code
        self.m = code.m
        self.r = r = code.r
        self.addr_masks = list(code.bitmasks())
        self.union_masks = _unions(self.addr_masks)
        self.union_index = {u: j + 1 for j, u in enumerate(self.union_masks)}
        self.addr_index = {a: j + 1 for j, a in enumerate(self.addr_masks)}
        if set(map(int.bit_count, self.union_masks)) - {r + 1}:
            raise ValueError(f"code needs every consecutive union to have weight r+1={r + 1}")
        if set(map(int.bit_count, self.addr_masks)) - {r}:
            raise ValueError(f"code needs every address to have weight r={r}")
        if len(self.addr_index) < len(self.addr_masks):
            raise ValueError("code needs distinct addresses")
        if len(self.union_index) < len(self.union_masks):
            raise ValueError("code needs distinct consecutive unions")
        self.union_lookup = _MaskLookup(self.m, r + 1, self.union_masks, self.union_index)
        self.addr_lookup = _MaskLookup(self.m, r, self.addr_masks, self.addr_index)
        self._exact: dict[int, DecodeResult] = {}  # union mask -> its shared exact-pair result

    def decode(self, positives: Iterable[int], allow_single: bool = True) -> DecodeResult:
        """Decode the observed positive pools, given as 1-based indices."""
        return self.decode_mask(mask_from_indices(positives, self.m), allow_single)

    def decode_mask(self, pmask: int, allow_single: bool = True) -> DecodeResult:
        """Decode a non-negative int mask of positive pools, bit i-1 for pool i.
        A memo hit checks nothing: on a miss a non-int, a bool included, raises
        ``TypeError`` and a negative int ``ValueError``; ``decode`` is the checked edge."""
        exact = self._exact.get(pmask)
        if exact is not None:
            return exact
        if type(pmask) is not int:
            raise TypeError(f"decode_mask takes an int mask, got {type(pmask).__name__}")
        if pmask < 0:
            raise ValueError(f"decode_mask takes a non-negative mask, got {pmask}")
        r = self.r
        k = pmask.bit_count()
        if k == r + 1:
            j = self.union_index.get(pmask)
            if j is not None:
                pair = (j, j + 1)
                exact = self._exact[pmask] = DecodeResult(EXACT_PAIR, pair, None, 0, pair, (j,))
                return exact

        pairs = self.union_lookup.near(pmask)
        items = set(pairs)
        items.update([j + 1 for j in pairs])
        if allow_single:
            addresses = self.addr_lookup.near(pmask)
            items.update(addresses)
            # With k == r the one address that can match is pmask itself.
            if k == r and addresses:
                single = addresses[0]
                if pairs:
                    return DecodeResult(
                        AMBIGUOUS, None, single, 0, tuple(sorted(items)), tuple(pairs)
                    )
                return DecodeResult(EXACT_SINGLE, None, single, 0, (single,), ())
        return DecodeResult(
            ERROR_FALSE_POSITIVE if k > r else ERROR_FALSE_NEGATIVE,
            None,
            None,
            max(1, abs(k - (r + 1))),
            tuple(sorted(items)),
            tuple(pairs),
        )


def partition_items(n_items: int, d: int) -> list[tuple[int, int]]:
    """Split 1..n_items into ceil(n/(d-1)) contiguous groups of size at most d-1.

    Group sizes differ by at most one, larger groups first, so that positives
    confined to any d consecutive items span at most two groups.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if n_items < 1:
        raise ValueError(f"n_items must be positive, got {n_items}")
    groups = -(-n_items // (d - 1))
    base, rem = divmod(n_items, groups)
    sizes = [base + 1] * rem + [base] * (groups - rem)
    ranges = []
    start = 1
    for size in sizes:
        ranges.append((start, start + size - 1))
        start += size
    return ranges
