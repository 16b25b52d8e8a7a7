"""Decoding of pooled-experiment outcomes against a code.

An error-free outcome activates exactly the r+1 pools of one consecutive
pair's union (or the r pools of one item's address when single positives are
in play). Any other positive-pool count proves an experimental error; the
decoder then narrows the field to the pairs and items still consistent with
the observation under a false-negative model (observed pools are a subset of
the truth) or a false-positive model (observed pools are a superset).

The error path does not scan the code. It enumerates every union and
address mask that could be consistent with the observation and looks each
one up in the decoder's mask tables, so its cost depends on m, r and the
observation but not on the code length n. For k observed pools that is
C(m-k, r+1-k) union supersets after a false negative and C(k, r+1) union
subsets after a false positive. When the enumeration would need more
lookups than the code has masks, as for an empty observation, the decoder
scans the code instead, so no outcome costs more than O(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable

from .codes import GrayCode, mask_from_indices

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


class _MaskLookup:
    """Finds the masks of one list that lie near an observation.

    Holds the decoder's mask list and its mask -> last position index, not
    copies of them. A query enumerates every mask of a weight present in the
    list that could qualify and looks it up in the index; when that would
    take more lookups than the list has masks, it scans the list instead.
    The weights present and the earlier positions of repeated masks (invalid
    codes only) are found on the first query, so a decoder that only ever
    sees exact outcomes never pays for them.
    """

    __slots__ = ("m", "masks", "index", "_bits", "_weights", "_repeats")

    def __init__(self, m: int, masks: list[int], index: dict[int, int]):
        self.m = m
        self.masks = masks
        self.index = index
        self._bits: list[int] = []
        self._weights: list[int] | None = None
        self._repeats: dict[int, list[int]] = {}

    def near(self, pmask: int, outside: int, cover: bool = False) -> list[int]:
        """Ascending 1-based positions of the masks with at most ``outside``
        pools outside ``pmask`` that, when ``cover`` is set, also contain
        every pool of ``pmask``."""
        found = self._lookup(pmask, outside, cover)
        return self._scan(pmask, outside, cover) if found is None else found

    def _lookup(self, pmask: int, outside: int, cover: bool) -> list[int] | None:
        """``near`` by enumeration, or None when that would take more lookups
        than the list has masks. Bits of ``pmask`` above pool m are never
        enumerated: no mask contains them."""
        low = pmask & ((1 << self.m) - 1)
        if cover and low != pmask:
            return []
        shapes, cost = self._shapes(low.bit_count(), outside, cover)
        if cost > len(self.masks):
            return None
        inside = [b for b in self._bits if b & low]
        rest = [b for b in self._bits if not b & low]
        get = self.index.get
        found = []
        for a, t in shapes:
            heads = _bit_sums(inside, a)
            found += [
                j for tail in _bit_sums(rest, t) for h in heads if (j := get(h | tail)) is not None
            ]
        if self._repeats:
            found += [i for j in found for i in self._repeats.get(self.masks[j - 1], ())]
        found.sort()
        return found

    def cost(self, k: int, outside: int, cover: bool = False) -> int:
        """Masks a ``near`` query with k observed pools below pool m visits:
        the lookups it enumerates, or the whole list when it scans."""
        return min(self._shapes(k, outside, cover)[1], len(self.masks))

    def _shapes(self, k: int, outside: int, cover: bool) -> tuple[list[tuple[int, int]], int]:
        """The (inside, outside) pool counts of every qualifying mask shape
        for k observed pools, and how many lookups enumerating them takes."""
        if self._weights is None:
            self._prepare()
        m = self.m
        # A qualifying mask of weight w takes w-t pools of the observation
        # and t pools outside it.
        shapes = []
        cost = 0
        for w in self._weights:
            for t in range(max(0, w - k), min(outside, m - k, w - k if cover else w) + 1):
                shapes.append((w - t, t))
                cost += comb(k, w - t) * comb(m - k, t)
        return shapes, cost

    def _scan(self, pmask: int, outside: int, cover: bool) -> list[int]:
        if cover:
            return [
                j
                for j, x in enumerate(self.masks, 1)
                if not pmask & ~x and (x & ~pmask).bit_count() <= outside
            ]
        if outside == 0:
            return [j for j, x in enumerate(self.masks, 1) if not x & ~pmask]
        return [
            j for j, x in enumerate(self.masks, 1) if (x & ~pmask).bit_count() <= outside
        ]

    def _prepare(self) -> None:
        self._bits = [1 << i for i in range(self.m)]
        self._weights = sorted(set(map(int.bit_count, self.masks)))
        if len(self.index) < len(self.masks):
            for j, x in enumerate(self.masks, 1):
                if self.index[x] != j:
                    self._repeats.setdefault(x, []).append(j)


class PoolDecoder:
    """Reusable decoder for one code; precomputes the mask lookup tables."""

    def __init__(self, code: GrayCode):
        self.code = code
        self.m = code.m
        self.r = code.r
        self.addr_masks = list(code.bitmasks())
        self.union_masks = [
            self.addr_masks[j] | self.addr_masks[j + 1]
            for j in range(len(self.addr_masks) - 1)
        ]
        self.union_index = {u: j + 1 for j, u in enumerate(self.union_masks)}
        self.addr_index = {a: j + 1 for j, a in enumerate(self.addr_masks)}
        self.union_lookup = _MaskLookup(self.m, self.union_masks, self.union_index)
        self.addr_lookup = _MaskLookup(self.m, self.addr_masks, self.addr_index)

    def unmet_requirement(self) -> str | None:
        """The first requirement of a valid code that this code fails,
        worded to follow "needs", or None exactly when ``validate`` finds
        no violation.

        Each check is one C-level pass over the tables built above. Once
        every address has weight r, a union of weight r+1 is the same as
        adjacent addresses at distance 2.
        """
        r = self.r
        if set(map(int.bit_count, self.union_masks)) - {r + 1}:
            return f"every consecutive union to have weight r+1={r + 1}"
        if set(map(int.bit_count, self.addr_masks)) - {r}:
            return f"every address to have weight r={r}"
        if len(self.addr_index) < len(self.addr_masks):
            return "distinct addresses"
        if len(self.union_index) < len(self.union_masks):
            return "distinct consecutive unions"
        return None

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
            return self._false_positive(pmask, k, allow_single)
        if k > r + 1:
            return self._false_positive(pmask, k, allow_single)

        # k <= r: a single item (k == r) or a pair shadowed by false negatives.
        pairs = self.union_lookup.near(pmask, self.m, cover=True)
        items = set()
        for j in pairs:
            items.add(j)
            items.add(j + 1)
        single = None
        if allow_single:
            items.update(self.addr_lookup.near(pmask, self.m, cover=True))
            if k == r:
                single = self.addr_index.get(pmask)
        if single is not None:
            if pairs:
                return DecodeResult(
                    AMBIGUOUS, None, single, 0, tuple(sorted(items)), tuple(pairs)
                )
            return DecodeResult(EXACT_SINGLE, None, single, 0, (single,), ())
        return DecodeResult(
            ERROR_FALSE_NEGATIVE,
            None,
            None,
            r + 1 - k,
            tuple(sorted(items)),
            tuple(pairs),
        )

    def _false_positive(self, pmask: int, k: int, allow_single: bool) -> DecodeResult:
        # The truth must hide inside the observed pools: unions (and, when
        # singles are in play, addresses) contained in the observation.
        pairs = self.union_lookup.near(pmask, 0)
        items = set()
        for j in pairs:
            items.add(j)
            items.add(j + 1)
        if allow_single:
            items.update(self.addr_lookup.near(pmask, 0))
        return DecodeResult(
            ERROR_FALSE_POSITIVE,
            None,
            None,
            max(1, k - (self.r + 1)),
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
