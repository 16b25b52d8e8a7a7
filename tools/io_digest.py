"""One sha256 over the bytes a fixed list of codes reads out as.

    python3 tools/io_digest.py

Builds each code below with the library from the ``src/`` next to this
file and hashes, in list order, its JSON and CSV files, its ``validate``
report as JSON, and decoder answers as JSON, with single positives allowed
and not: for each of the code's first 200 consecutive unions, that union,
the union without its lowest pool and the union with its lowest free pool
added, then the empty and the full outcome. Two checkouts that print the
same digest write the same code files and give the same reports and
answers on these codes. The second line counts the hashed decoder answers.

The third line is one sha256 over the ``sweep_to_csv`` bytes of error
sweeps, in list order, each for false negatives and then false positives:
exhaustive with ``max_errors=1`` on every code but the last, and sampled
with ``max_errors=2``, 300 samples and seed 1 on the three rcbba codes.
The last code is left out because its exhaustive false-positive levels
hold an m-bit mask for each of its 10^5 pools.

The fourth line is one sha256 over the ``sweep_to_csv`` bytes of the
last code's sampled sweeps, 300 samples and seed 1: false negatives with
``max_errors=1`` and then false positives with ``max_errors=2``.

Codes: bba (10,4,150), (12,3,150) and (14,4,350); rcbba (18,6,3000),
(16,5,2000) and (20,6,8000); maximal (9,2), (8,3), (40,2) and (70,2),
whose columns span one, two and three 32-pool words; and a (10^5, 1) code
with three addresses, at pools 1, 50001 and 100000. Every seed is 0.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graypool import GrayCode, PoolDecoder, bba, build_maximal, rcbba, validate  # noqa: E402
from graypool import simulate_sweep, sweep_to_csv  # noqa: E402
from graypool.codes import _code_to_csv, code_to_json  # noqa: E402

EXHAUSTIVE = {"max_errors": 1}
SAMPLED = {"max_errors": 2, "mode": "sampled", "samples": 300, "seed": 1}
WIDE = GrayCode(10**5, 1, [1, 1 << 50000, 1 << 99999])


def codes():
    """Each code with the arguments of the sweeps hashed on it."""
    for m, r, n in ((10, 4, 150), (12, 3, 150), (14, 4, 350)):
        yield bba(m, r, n, seed=0), (EXHAUSTIVE,)
    for m, r, n in ((18, 6, 3000), (16, 5, 2000), (20, 6, 8000)):
        yield rcbba(m, r, n, seed=0), (EXHAUSTIVE, SAMPLED)
    for m, r in ((9, 2), (8, 3), (40, 2), (70, 2)):
        yield build_maximal(m, r, seed=0), (EXHAUSTIVE,)
    yield WIDE, ()


def outcomes(code):
    full = (1 << code.m) - 1
    for a, b in zip(code.masks[:200], code.masks[1:201]):
        u = a | b
        yield u
        yield u & (u - 1)
        if u != full:
            yield u | (u + 1) & ~u
    yield 0
    yield full


def main() -> None:
    digest = hashlib.sha256()
    sweeps = hashlib.sha256()
    answers = 0
    for code, sweep_args in codes():
        digest.update(code_to_json(code).encode())
        digest.update(_code_to_csv(code).encode())
        digest.update(json.dumps(validate(code).to_json_dict()).encode() + b"\n")
        decoder = PoolDecoder(code)
        for pmask in outcomes(code):
            for allow_single in (True, False):
                result = decoder.decode_mask(pmask, allow_single).to_json_dict()
                digest.update(json.dumps(result).encode() + b"\n")
                answers += 1
        for args in sweep_args:
            for error_type in ("false-negative", "false-positive"):
                records = simulate_sweep(code, error_type=error_type, **args)
                sweeps.update(sweep_to_csv(records).encode())
    print(digest.hexdigest())
    print(json.dumps({"answers": answers}))
    print(sweeps.hexdigest())
    wide = hashlib.sha256()
    for error_type, max_errors in (("false-negative", 1), ("false-positive", 2)):
        args = {**SAMPLED, "max_errors": max_errors}
        wide.update(sweep_to_csv(simulate_sweep(WIDE, error_type=error_type, **args)).encode())
    print(wide.hexdigest())


if __name__ == "__main__":
    main()
