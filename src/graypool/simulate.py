"""Error-injection study: how far do experimental errors widen the candidate list.

For every consecutive pair (or a random sample of them) the sweep activates
the pair's union, knocks out e pools (false negatives) or lights e extra
pools (false positives), decodes, and aggregates candidate-list sizes per
error level.

The recorded candidate count is the number of items explainable within the
error budget the observation implies. An error-free observation counts
exactly the two decoded items. After dropouts leave k observed pools it
counts every item whose address has at most r+1-k pools outside them; with
every union of weight r+1 that includes every pair and item the decoder
keeps. After extra pools it counts the decoder's candidate items.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

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


def simulate_sweep(
    code: GrayCode,
    max_errors: int,
    mode: str = "exhaustive",
    samples: int = 10000,
    seed: int = 0,
    allow_single: bool = False,
    error_type: str = FALSE_NEGATIVE,
) -> list[SimSweepRecord]:
    """Sweep error levels 0..max_errors over the code's consecutive pairs.

    Exhaustive mode enumerates every pair and every e-subset of injectable
    pools, (n-1)*C(r+1, e) trials per level for false negatives. Sampled mode
    draws ``samples`` trials per level with the seeded generator and needs
    ``samples >= 1``. Mode ``auto`` picks exhaustive when the total
    exhaustive trial count stays under 10^6 and sampling otherwise.
    Decoding runs in pure pair-detection mode unless ``allow_single`` is set.
    Candidates within the error budget are looked up, not scanned; see
    ``graypool.decode``.

    Every consecutive union must have weight r+1, as on any valid code;
    other codes raise ``ValueError``. Every pair then has r+1 pools to knock
    out and m-r-1 to light, so no error level runs out of trials, and the
    dropout count needs no decoding (see the module docstring).
    """
    if code.n < 2:
        raise ValueError("sweep needs a code with at least one consecutive pair")
    decoder = PoolDecoder(code)
    unions = decoder.union_masks
    if any(u.bit_count() != code.r + 1 for u in unions):
        raise ValueError(f"sweep needs every consecutive union to have weight r+1={code.r + 1}")
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

    def candidate_count(pmask: int) -> int:
        budget = code.r + 1 - pmask.bit_count()
        if budget > 0:
            return len(decoder.addr_lookup.near(pmask, budget))
        return len(decoder.decode_mask(pmask, allow_single).candidate_items)

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

    rng = random.Random(seed)
    records = []
    for e in range(max_errors + 1):
        total_candidates = 0
        worst = 0
        trials = 0
        for pmask in outcomes(e):
            count = candidate_count(pmask)
            total_candidates += count
            worst = max(worst, count)
            trials += 1
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
