"""One sha256 per constructor over its outcomes on a fixed request grid.

    python3 tools/construct_digest.py

Runs each constructor from the ``src/`` next to this file on every request
of its grid below and hashes, in grid order, each request with its code
masks (and rcbba's trace JSON), or with its error's type and message. Each
line is a digest and the constructor it covers; two checkouts that print
the same line build the same codes, traces and errors on that grid. The
last line counts each constructor's outcomes by error kind. The requests
run on one worker process per CPU, and the outcomes are hashed in grid
order, so the lines do not depend on the number of CPUs.

- rcbba: m = 3..14, every r in 1..m-1, n in {1, 2, 3, b//4, b//2, 3b//4,
  b-2, b-1, b} with n >= 1, where b is the length bound of (m, r); seeds
  0-2; budgets 2*10^4 and 2*10^5.
- bba: m = 3..9, every r in 1..m-1, n in {1, 2, b//2, b-1, b, b+1} with
  n >= 1; seeds 0-1; budget 10^5.
- build_maximal: m = 2..12, every r in 1..m-1; seeds 0-2.

Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graypool import (  # noqa: E402
    ConstructionError,
    bba,
    build_maximal,
    length_bound,
    rcbba_detailed,
)


def rcbba_requests():
    for m in range(3, 15):
        for r in range(1, m):
            b = length_bound(m, r)
            lengths = {1, 2, 3, b // 4, b // 2, 3 * b // 4, b - 2, b - 1, b}
            for n in sorted(n for n in lengths if n >= 1):
                for seed in (0, 1, 2):
                    for budget in (2 * 10**4, 2 * 10**5):
                        yield m, r, n, seed, budget


def bba_requests():
    for m in range(3, 10):
        for r in range(1, m):
            b = length_bound(m, r)
            for n in sorted(n for n in {1, 2, b // 2, b - 1, b, b + 1} if n >= 1):
                for seed in (0, 1):
                    yield m, r, n, seed, 10**5


def maximal_requests():
    for m in range(2, 13):
        for r in range(1, m):
            for seed in (0, 1, 2):
                yield m, r, seed


def run_rcbba(m, r, n, seed, budget):
    code, trace = rcbba_detailed(m, r, n, seed=seed, budget=budget)
    return {"masks": list(code.masks), "trace": trace.to_json_dict()}


def run_bba(m, r, n, seed, budget):
    return {"masks": list(bba(m, r, n, seed=seed, budget=budget).masks)}


def run_maximal(m, r, seed):
    return {"masks": list(build_maximal(m, r, seed=seed).masks)}


CONSTRUCTORS = {
    "rcbba": (rcbba_requests, run_rcbba),
    "bba": (bba_requests, run_bba),
    "build_maximal": (maximal_requests, run_maximal),
}


def outcome(name, request):
    """The error kind, or ``built``, and the JSON record of one request."""
    try:
        result, kind = CONSTRUCTORS[name][1](*request), "built"
    except ConstructionError as exc:
        result, kind = {"error": type(exc).__name__, "message": str(exc)}, exc.kind
    return kind, json.dumps({"request": list(request), **result}, sort_keys=True)


def main() -> None:
    kinds: dict[str, Counter[str]] = {}
    with ProcessPoolExecutor() as pool:
        for name, (requests, _) in CONSTRUCTORS.items():
            digest = hashlib.sha256()
            kinds[name] = Counter()
            for kind, record in pool.map(partial(outcome, name), requests()):
                kinds[name][kind] += 1
                digest.update(record.encode() + b"\n")
            print(f"{digest.hexdigest()}  {name}")
    print(json.dumps({name: dict(sorted(c.items())) for name, c in kinds.items()}))


if __name__ == "__main__":
    main()
