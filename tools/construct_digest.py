"""One sha256 over rcbba's outcomes on a fixed request grid.

    python3 tools/construct_digest.py

Runs ``rcbba_detailed`` from the ``src/`` next to this file on every
(m, r, n, seed, budget) of the grid below and hashes, in grid order, each
request with its code masks and trace JSON, or with its error's type and
message. Two checkouts that print the same digest build the same codes,
traces and errors on the whole grid. The second line counts the outcomes
by error kind.

Grid: m = 3..14, every r in 1..m-1, n in {1, 2, 3, b//4, b//2, 3b//4,
b-2, b-1, b} with n >= 1, where b is the length bound of (m, r); seeds
0-2; budgets 2*10^4 and 2*10^5. Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graypool import ConstructionError, length_bound, rcbba_detailed  # noqa: E402

SEEDS = (0, 1, 2)
BUDGETS = (2 * 10**4, 2 * 10**5)


def requests():
    for m in range(3, 15):
        for r in range(1, m):
            b = length_bound(m, r)
            lengths = {1, 2, 3, b // 4, b // 2, 3 * b // 4, b - 2, b - 1, b}
            for n in sorted(n for n in lengths if n >= 1):
                for seed in SEEDS:
                    for budget in BUDGETS:
                        yield m, r, n, seed, budget


def main() -> None:
    digest = hashlib.sha256()
    kinds: Counter[str] = Counter()
    for m, r, n, seed, budget in requests():
        try:
            code, trace = rcbba_detailed(m, r, n, seed=seed, budget=budget)
            outcome = {"masks": list(code.masks), "trace": trace.to_json_dict()}
            kinds["built"] += 1
        except ConstructionError as exc:
            outcome = {"error": type(exc).__name__, "message": str(exc)}
            kinds[exc.kind] += 1
        record = {"request": [m, r, n, seed, budget], **outcome}
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    print(digest.hexdigest())
    print(json.dumps(dict(sorted(kinds.items()))))


if __name__ == "__main__":
    main()
