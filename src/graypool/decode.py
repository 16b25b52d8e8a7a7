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

The error path does not scan the code. It enumerates every union and
address mask that could be consistent with the observation and looks each
one up in the decoder's mask tables, so its cost depends on m, r and the
observation but not on the code length n. For k observed pools that is
C(m-k, r+1-k) union supersets after a false negative and C(k, r+1) union
subsets after a false positive. When the enumeration would need more
lookups than the code has masks, as for an empty observation, the decoder
scans the code instead, so no outcome costs more than O(n).

The decoder takes valid codes only: distinct addresses of weight r whose
consecutive unions are distinct and of weight r+1. So each lookup
enumerates masks of one weight, and each mask has one position.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .codes import GrayCode, _set_bits, mask_from_indices

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
    deduplicated.
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


def _bit_sums(bits: list[int], t: int) -> list[int]:
    """Every mask made of t (0 <= t <= len(bits)) of the ascending
    single-bit masks ``bits``.

    Each partial sum grows only by bits above its highest bit (b > s), so
    every t-subset is built once. Above half the bits, the complements of
    the smaller subsets are cheaper to build.
    """
    k = min(t, len(bits) - t)
    if k == 1:
        sums = bits
    else:
        sums = [0]
        for _ in range(k):
            sums = [s | b for s in sums for b in bits if b > s]
    if k < t:
        total = sum(bits)
        sums = [total - s for s in sums]
    return sums


class _Plans(dict[tuple[int, int], tuple[range, int]]):
    """Enumeration plans for masks of weight w over m pools, keyed by
    (k, outside): every count t of pools outside k observed ones that a mask
    with at most ``outside`` such pools can have, taking its other w-t pools
    from the observation, and the lookups enumerating them takes. A plan is
    computed on first use; k and outside run over 0..m, so at most (m+1)^2
    are kept."""

    def __init__(self, m: int, w: int):
        super().__init__()
        self.m = m
        self.w = w

    def __missing__(self, key: tuple[int, int]) -> tuple[range, int]:
        k, outside = key
        m, w = self.m, self.w
        counts = range(max(0, w - k), min(outside, m - k, w) + 1)
        plan = self[key] = counts, sum([comb(k, w - t) * comb(m - k, t) for t in counts])
        return plan


class _MaskLookup:
    """Finds the masks of one list, all of weight w, that lie near an
    observation.

    Holds the decoder's mask list and its mask -> position index, not copies
    of them, and the query plans (``_Plans``). A query builds every mask of
    weight w that could qualify, from the observed pools and, only when a
    mask may take pools outside them, from the other pools too, and looks
    each one up in the index; when that would take more lookups than the
    list has masks, it scans the list instead. So a query builds no more
    masks than it looks up, plus one m-bit mask.
    """

    __slots__ = ("m", "w", "masks", "index", "_plans")

    def __init__(self, m: int, w: int, masks: list[int], index: dict[int, int]):
        self.m = m
        self.w = w
        self.masks = masks
        self.index = index
        self._plans = _Plans(m, w)

    def near(self, pmask: int, outside: int) -> list[int]:
        """Ascending 1-based positions of the masks with at most ``outside``
        pools outside ``pmask``.

        This one query answers both error types. A mask of weight w is
        consistent with k observed pools exactly when at most max(0, w-k) of
        its pools lie outside them: for k <= w the mask then contains the
        observation (dropouts), for k >= w it lies inside it (extra pools).
        A lit pool above m leaves fewer than k pools to match, so such an
        observation finds nothing, and its bits are never enumerated."""
        full = (1 << self.m) - 1
        low = pmask & full
        counts, cost = self._plans[low.bit_count(), outside]
        if cost > len(self.masks):
            return self._scan(pmask, outside)
        inside = [1 << i for i in _set_bits(low)]
        # A count t > 0 costs C(m-k, t) >= m-k lookups unless t = m-k <= w,
        # so there are no more other pools than masks, or than w.
        rest = [1 << i for i in _set_bits(full ^ low)] if counts and counts[-1] else []
        get = self.index.get
        found: list[int] = []
        for t in counts:
            candidates = _bit_sums(inside, self.w - t)
            if t:
                candidates = [h | tail for tail in _bit_sums(rest, t) for h in candidates]
            # Positions start at 1, so a miss is the only falsy lookup.
            found += filter(None, map(get, candidates))
        found.sort()
        return found

    def cost(self, k: int, outside: int) -> int:
        """Masks a ``near`` query with k observed pools below pool m visits:
        the lookups it enumerates, or the whole list when it scans."""
        return min(self._plans[k, outside][1], len(self.masks))

    def _scan(self, pmask: int, outside: int) -> list[int]:
        return [j for j, x in enumerate(self.masks, 1) if (x & ~pmask).bit_count() <= outside]


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
        self.union_masks = [
            self.addr_masks[j] | self.addr_masks[j + 1]
            for j in range(len(self.addr_masks) - 1)
        ]
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

    def decode(self, positives: Iterable[int], allow_single: bool = True) -> DecodeResult:
        """Decode the observed positive pools, given as 1-based indices."""
        return self.decode_mask(mask_from_indices(positives, self.m), allow_single)

    def decode_mask(self, pmask: int, allow_single: bool = True) -> DecodeResult:
        r = self.r
        k = pmask.bit_count()
        if k == r + 1:
            j = self.union_index.get(pmask)
            if j is not None:
                return DecodeResult(EXACT_PAIR, (j, j + 1), None, 0, (j, j + 1), (j,))

        pairs = self.union_lookup.near(pmask, max(0, r + 1 - k))
        items = set()
        for j in pairs:
            items.add(j)
            items.add(j + 1)
        if allow_single:
            addresses = self.addr_lookup.near(pmask, max(0, r - k))
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
