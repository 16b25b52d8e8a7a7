"""Error-injection study: how far do experimental errors widen the candidate list.

For every consecutive pair (or a random sample of them) the sweep activates
the pair's union, knocks out e pools (false negatives) or lights e extra
pools (false positives), and aggregates candidate-list sizes per error
level.

The recorded candidate count is the number of items explainable within the
error budget the observation implies. An error-free observation counts
exactly the two items of its pair. After dropouts leave k observed pools it
counts every item whose address has at most r+1-k pools outside them, that
is, shares at least k-1 pools with the observation; with every union of
weight r+1 that includes every pair and item the decoder keeps. After extra
pools it counts the items of the pairs whose union lies inside the
observation; a single positive is never a candidate.

The sweep counts without building a decoder answer per trial. A pair count
looks the (r+1)-subsets of the observation up in the decoder's union index;
when there are more subsets than unions it scans the unions instead, as
the decoder does, so no outcome costs more than O(n). A dropout level
either asks ``decoder.addr_lookup`` per trial or first tallies, over every
address, how many addresses hold each of its (k-1)- and k-subsets; an
outcome's count is then k+1 lookups in that table (see ``_dropout_count``),
which is dropped when the level ends. The table has n*C(r+1, e) entries,
and building one costs about as much as three mask visits of the address
lookup, so a level takes the table when its trials would visit at least
three masks per entry (``_VISITS_PER_ENTRY``). Both shortcuts rely on the
code being valid, so the sweep rejects any other code.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Iterator

from .codes import GrayCode, _set_bits
from .decode import PoolDecoder, _bit_sums

CSV_COLUMNS = ("n", "e", "trials", "mean_candidates", "max_candidates", "fraction_of_n")

FALSE_NEGATIVE = "false-negative"
FALSE_POSITIVE = "false-positive"

_AUTO_TRIAL_CEILING = 10**6

# Mask visits of ``addr_lookup.near`` that cost as much as one entry of a
# dropout table: the break-even trial count measured at (18, 6) with
# n = 1000 and 3000 and e = 1..6 lies within a factor of 1.5 of this model.
_VISITS_PER_ENTRY = 3


@dataclass(frozen=True)
class SimSweepRecord:
    """Aggregate candidate-list statistics for one error level."""

    n: int
    e: int
    trials: int
    mean_candidates: float
    max_candidates: int
    fraction_of_n: float


def _pair_count(decoder: PoolDecoder) -> Callable[[int], int]:
    """Count of the items of the pairs whose union lies inside an observation.

    The (r+1)-subsets of the observation are looked up in the union index,
    up to the observation size ``widest`` beyond which they outnumber the
    unions and the union lookup scans instead. Two found pairs j and j+1
    share item j+1.
    """
    t = decoder.r + 1
    get = decoder.union_index.get
    near = decoder.union_lookup.near
    widest = max(k for k in range(t, decoder.m + 1) if comb(k, t) <= len(decoder.union_masks))

    def count(pmask: int) -> int:
        if pmask.bit_count() > widest:
            pairs = near(pmask, 0)
        else:
            pairs = list(filter(None, map(get, _bit_sums([1 << i for i in _set_bits(pmask)], t))))
        if len(pairs) == 1:
            return 2
        found = set(pairs)
        return 2 * len(pairs) - sum([j + 1 in found for j in pairs])

    return count


def _dropout_count(decoder: PoolDecoder, e: int) -> Callable[[int], int]:
    """Count of the addresses sharing at least k-1 pools with an observation
    of k = r+1-e pools.

    ``held`` maps each (k-1)- and k-subset of an address to the number of
    addresses holding it: n*C(r+1, e) entries, at most C(m, k-1)+C(m, k)
    keys. An address that holds all k observed pools p holds every p^b, for
    b a pool of p; one that holds k-1 of them holds exactly one. So the sum
    of held[p^b] over the pools b, minus (k-1)*held[p], counts each once.
    """
    k = decoder.r + 1 - e
    subsets: list[int] = []
    for a in decoder.addr_masks:
        bits = [1 << i for i in _set_bits(a)]
        subsets += _bit_sums(bits, k - 1)
        subsets += _bit_sums(bits, k)
    held = Counter(subsets)
    get = held.get

    def count(pmask: int) -> int:
        return sum([get(pmask ^ 1 << i, 0) for i in _set_bits(pmask)]) - (k - 1) * get(pmask, 0)

    return count


def simulate_sweep(
    code: GrayCode,
    max_errors: int,
    mode: str = "exhaustive",
    samples: int = 10000,
    seed: int = 0,
    error_type: str = FALSE_NEGATIVE,
) -> list[SimSweepRecord]:
    """Sweep error levels 0..max_errors over the code's consecutive pairs.

    Exhaustive mode enumerates every pair and every e-subset of injectable
    pools, (n-1)*C(r+1, e) trials per level for false negatives. Sampled mode
    draws ``samples`` trials per level with the seeded generator and needs
    ``samples >= 1``. Mode ``auto`` picks exhaustive when the total
    exhaustive trial count stays under 10^6 and sampling otherwise.
    Single positives never count.

    Candidates are counted from tables, not decoded; see the module
    docstring for which levels build a dropout table. The code must be
    valid, or ``ValueError`` names a requirement it fails. Every pair then
    has r+1 pools to knock out and m-r-1 to light, so no error level runs
    out of trials.
    """
    if code.n < 2:
        raise ValueError("sweep needs a code with at least one consecutive pair")
    decoder = PoolDecoder(code)
    unmet = decoder.unmet_requirement()
    if unmet is not None:
        raise ValueError(f"sweep needs {unmet}")
    unions = decoder.union_masks
    if error_type not in (FALSE_NEGATIVE, FALSE_POSITIVE):
        raise ValueError(f"unknown error type {error_type!r}")
    if max_errors < 0:
        raise ValueError("max_errors must be non-negative")
    if error_type == FALSE_NEGATIVE and max_errors >= code.r + 1:
        raise ValueError(
            f"max_errors must be below r+1={code.r + 1}; dropping every positive pool "
            "leaves no signal"
        )
    if error_type == FALSE_POSITIVE and max_errors > code.m - (code.r + 1):
        raise ValueError(
            f"max_errors must be at most m-(r+1)={code.m - (code.r + 1)} extra pools"
        )
    if mode not in ("exhaustive", "sampled", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    pool_count = code.r + 1 if error_type == FALSE_NEGATIVE else code.m - (code.r + 1)
    if mode == "auto":
        total = sum((code.n - 1) * comb(pool_count, e) for e in range(max_errors + 1))
        mode = "exhaustive" if total <= _AUTO_TRIAL_CEILING else "sampled"
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs at least 1 sample per error level, got {samples}")

    full = (1 << code.m) - 1

    def flippable(u: int) -> list[int]:
        """The single-pool masks an error can flip in the outcome of union u."""
        return [1 << p for p in _set_bits(u if error_type == FALSE_NEGATIVE else full & ~u)]

    def outcomes(e: int) -> Iterator[int]:
        if mode == "exhaustive":
            for u in unions:
                for flips in combinations(flippable(u), e):
                    yield u ^ sum(flips)
        else:
            for _ in range(samples):
                u = unions[rng.randrange(len(unions))]
                yield u ^ sum(rng.sample(flippable(u), e))

    def near(pmask: int) -> int:
        return len(decoder.addr_lookup.near(pmask, code.r + 1 - pmask.bit_count()))

    pair_count = _pair_count(decoder)
    rng = random.Random(seed)
    records = []
    for e in range(max_errors + 1):
        trials = (code.n - 1) * comb(pool_count, e) if mode == "exhaustive" else samples
        entries = code.n * comb(code.r + 1, e)
        if e == 0 or error_type == FALSE_POSITIVE:
            count = pair_count
        elif trials * decoder.addr_lookup.cost(code.r + 1 - e, e) < _VISITS_PER_ENTRY * entries:
            count = near
        else:
            count = _dropout_count(decoder, e)
        total_candidates = 0
        worst = 0
        for c in map(count, outcomes(e)):
            total_candidates += c
            if c > worst:
                worst = c
        del count  # a dropout table lives for its level only
        mean = total_candidates / trials
        records.append(
            SimSweepRecord(
                n=code.n,
                e=e,
                trials=trials,
                mean_candidates=mean,
                max_candidates=worst,
                fraction_of_n=mean / code.n,
            )
        )
    return records


def sweep_to_csv(records: list[SimSweepRecord]) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        out.write(
            f"{rec.n},{rec.e},{rec.trials},{rec.mean_candidates:.6f},"
            f"{rec.max_candidates},{rec.fraction_of_n:.6f}\n"
        )
    return out.getvalue()
