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

The sweep counts without building a decoder answer per trial. An
exhaustive pair-count level (e = 0 of either error type, and every
false-positive level) groups its trials on their outcome: the trials that
give an outcome are exactly the pairs whose union lies inside it, so each
group is the pair list of its outcome and no outcome is looked up (see
``_grouped_pair_totals``). The groups hold one dict key per distinct
outcome, at most C(m, r+1+e), and one list slot per trial of an outcome
that two or more trials share. An exhaustive dropout level first
tallies, over every address, how many addresses hold each of its (k-1)-
and k-subsets; an outcome's count is then k+1 lookups in that table (see
``_dropout_count``), which has n*C(r+1, e) entries, about one per trial.
Either table is dropped when the level ends, and a level of more than
``_AUTO_TRIAL_CEILING`` trials builds neither, so memory stays bounded.
Every other trial, sampled or above the ceiling, asks the decoder's
union lookup for its pairs or its address lookup for its dropout count
(``find`` with one spare pool), under the same cost rule as
``PoolDecoder.decode``. The answer comes as enumerated positions or as a
column bitset, and is counted as it comes: an address count is its
length or its bit count, and a pair list of length L counts 2L items
less one per adjacent pair (``_items``), a pair bitset P
``(P | P << 1).bit_count()``.
These shortcuts rely on the code being valid, and the decoder the sweep
builds rejects any other code.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import sub
from typing import Callable, Iterator

from .codes import GrayCode, _set_bits
from .decode import PoolDecoder

CSV_COLUMNS = ("n", "e", "trials", "mean_candidates", "max_candidates", "fraction_of_n")

FALSE_NEGATIVE = "false-negative"
FALSE_POSITIVE = "false-positive"

_AUTO_TRIAL_CEILING = 10**6


@dataclass(frozen=True)
class SimSweepRecord:
    """Aggregate candidate-list statistics for one error level."""

    n: int
    e: int
    trials: int
    mean_candidates: float
    max_candidates: int
    fraction_of_n: float


def _items(pairs: list[int]) -> int:
    """Count of the items of an ascending pair list: pairs j and j+1 share
    item j+1."""
    if len(pairs) < 2:
        return 2 * len(pairs)
    return 2 * len(pairs) - list(map(sub, pairs[1:], pairs)).count(1)


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
        subsets += map(sum, combinations(bits, k - 1))
        subsets += map(sum, combinations(bits, k))
    held = Counter(subsets)
    get = held.get

    def count(pmask: int) -> int:
        return sum([get(pmask ^ 1 << i, 0) for i in _set_bits(pmask)]) - (k - 1) * get(pmask, 0)

    return count


def _grouped_pair_totals(unions: list[int], m: int, e: int) -> tuple[int, int]:
    """Candidate total and maximum over every exhaustive trial that lights
    e extra pools of a pair's union, counted per outcome rather than per
    trial; e = 0 gives the error-free level of either error type.

    On a valid code the trials that give an outcome O are exactly the pairs
    whose union lies inside O, each with the flips O minus its union. So
    grouping the trials on their outcome hands every trial its pair list
    without a lookup. An outcome holds the pair index of its first trial,
    and a list of ascending indices once a second trial shares it: one dict
    key per distinct outcome and one list slot per trial of a shared one,
    dropped when the level ends.
    """
    full = (1 << m) - 1
    groups: dict[int, int | list[int]] = {}
    for j, u in enumerate(unions):
        # At e = 0 no flip is drawn, so no m-bit mask of an unlit pool is built.
        for flips in combinations([1 << p for p in _set_bits(full & ~u)] if e else [], e):
            outcome = u ^ sum(flips)
            group = groups.setdefault(outcome, j)
            if group != j:
                if isinstance(group, int):
                    groups[outcome] = [group, j]
                else:
                    group.append(j)
    total, worst = 0, 2  # a trial counts at least the two items of its pair
    for pairs in groups.values():
        if isinstance(pairs, int):
            total += 2
            continue
        count = _items(pairs)
        total += len(pairs) * count
        if count > worst:
            worst = count
    return total, worst


def _totals(counts: Iterator[int]) -> tuple[int, int]:
    """Sum and maximum of per-trial candidate counts."""
    total = worst = 0
    for c in counts:
        total += c
        if c > worst:
            worst = c
    return total, worst


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

    Candidates are counted, not decoded. An exhaustive level of at most
    10^6 trials that counts pairs (e = 0, or false positives) groups its
    trials on their outcome instead of looking each one up, and one that
    counts dropouts builds a dropout table; see the module docstring for
    their memory.
    The code must be valid, or the decoder's ``ValueError`` names a
    requirement it fails. Every pair then has r+1 pools to knock out and
    m-r-1 to light, so no error level runs out of trials.
    """
    if code.n < 2:
        raise ValueError("sweep needs a code with at least one consecutive pair")
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
    decoder = PoolDecoder(code)
    unions = decoder.union_masks

    full = (1 << code.m) - 1

    def flippable(u: int) -> tuple[int, ...]:
        """The pools an error can flip in the outcome of union u."""
        return _set_bits(u if error_type == FALSE_NEGATIVE else full & ~u)

    def outcomes(e: int) -> Iterator[int]:
        if mode == "exhaustive":
            for u in unions:
                for flips in combinations([1 << p for p in flippable(u)] if e else [], e):
                    yield u ^ sum(flips)
        else:
            # ``sample`` draws by position, so only the drawn pools become masks.
            for _ in range(samples):
                u = unions[rng.randrange(len(unions))]
                yield u ^ sum([1 << p for p in rng.sample(flippable(u), e)])

    def dropout_count(pmask: int) -> int:
        found = decoder.addr_lookup.find(pmask, 1)
        return len(found) if type(found) is list else found.bit_count()

    def pair_count(pmask: int) -> int:
        pairs = decoder.union_lookup.find(pmask)
        # Pair j holds items j and j+1.
        return _items(pairs) if type(pairs) is list else (pairs | pairs << 1).bit_count()

    rng = random.Random(seed)
    records = []
    for e in range(max_errors + 1):
        trials = (code.n - 1) * comb(pool_count, e) if mode == "exhaustive" else samples
        grouped = mode == "exhaustive" and trials <= _AUTO_TRIAL_CEILING
        if e != 0 and error_type == FALSE_NEGATIVE:
            # The dropout table lives for this level only.
            count = _dropout_count(decoder, e) if grouped else dropout_count
            total_candidates, worst = _totals(map(count, outcomes(e)))
        elif grouped:
            total_candidates, worst = _grouped_pair_totals(unions, code.m, e)
        else:
            total_candidates, worst = _totals(map(pair_count, outcomes(e)))
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
