"""rcbba's and bba's success, balance and work per request, on a fixed grid.

    python3 tools/quality_table.py > tools/quality_table.txt

Runs ``rcbba_detailed`` and ``bba`` from the ``src/`` next to this file on
every request of their grids below, at seeds 0-23, and prints one
fixed-width row per request and budget:

- ``built``, ``exhausted``, ``no-join``: runs that built a code, that ran
  out of budget, and that ran out of joining addresses;
- ``dev mean``, ``dev max``: the mean and the largest deviation of the
  built codes;
- ``over bound``: the largest deviation minus ``trace.deviation_bound``
  over the built codes that have a closing block (at most 0 when the
  deviation theorem holds), or ``-`` when none has one (bba's codes never
  do);
- ``nodes``: node visits summed over the 24 runs, failed runs included;
- ``cpu s``: process CPU seconds for the 24 runs, for information only;
- ``mean over floor``, ``max over floor``: ``dev mean`` and ``dev max``
  less the least deviation any code of that request can have, which is 0
  when m divides n*r and 1 otherwise.

Each constructor's rows end in one sha256 over every column but ``cpu s``
and the two floor columns, which follow from the others. Two checkouts
that print the same digest succeed, fail, balance and search alike on that
constructor's grid.

Requests: rcbba runs the paper's bba grid (m in 10, 12, 14; r in 2, 3, 4;
n in 150, 350, 550, 750, 950 within the length bound), (12,3,200),
(10,3,100), and the long codes (18,6,3000), (18,6,10000), (20,6,8000) and
(16,5,2000), at budgets 2*10^4 and 10^6. bba runs the paper's grid at
budget 10^6. Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from importlib import import_module
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graypool import (  # noqa: E402
    ConstructionError, balance_of, bba, length_bound, rcbba_detailed
)
from graypool.bba import SearchBudget  # noqa: E402

GRID = [
    (m, r, n)
    for m in (10, 12, 14)
    for r in (2, 3, 4)
    for n in (150, 350, 550, 750, 950)
    if n <= length_bound(m, r)
]
REQUESTS = GRID + [(12, 3, 200), (10, 3, 100), (18, 6, 3000), (18, 6, 10000), (20, 6, 8000),
                   (16, 5, 2000)]
SEEDS = range(24)


def run_rcbba(m, r, n, seed, budget):
    code, trace = rcbba_detailed(m, r, n, seed=seed, budget=budget)
    return code, trace.deviation_bound


def run_bba(m, r, n, seed, budget):
    return bba(m, r, n, seed=seed, budget=budget), None


# Each constructor's requests, budgets, and run, which returns the code and
# its deviation bound or None.
TABLES = {
    "rcbba": (REQUESTS, (2 * 10**4, 10**6), run_rcbba),
    "bba": (GRID, (10**6,), run_bba),
}


class _Budget(SearchBudget):
    """The library's budget, keeping the last one made so its count can be read."""

    __slots__ = ()
    last = None

    def __init__(self, *args):
        super().__init__(*args)
        _Budget.last = self


def row(run, m, r, n, budget) -> dict:
    outcomes = {"built": 0, "budget-exhausted": 0, "no-joining-address": 0}
    deviations, over, nodes = [], [], 0
    started = time.process_time()
    for seed in SEEDS:
        try:
            code, bound = run(m, r, n, seed, budget)
        except ConstructionError as exc:
            outcomes[exc.kind] += 1
        else:
            outcomes["built"] += 1
            deviations.append(balance_of(code).deviation)
            if bound is not None:
                over.append(deviations[-1] - bound)
        nodes += _Budget.last.spent
    return {
        "request": [m, r, n],
        "budget": budget,
        **outcomes,
        "dev_mean": round(sum(deviations) / len(deviations), 2) if deviations else None,
        "dev_max": max(deviations, default=None),
        "over_bound": max(over, default=None),
        "nodes": nodes,
        "cpu_s": time.process_time() - started,
    }


COLUMNS = (
    ("request", 14), ("budget", 8), ("built", 6), ("exhausted", 10), ("no-join", 8),
    ("dev mean", 9), ("dev max", 8), ("over bound", 11), ("nodes", 10), ("cpu s", 7),
    ("mean over floor", 16), ("max over floor", 15),
)


def _cells(rec: dict) -> list[str]:
    def show(value, spec=""):
        return "-" if value is None else format(value, spec)

    m, r, n = rec["request"]
    floor = 0 if n * r % m == 0 else 1

    def above(value):
        return None if value is None else value - floor

    return [
        f"({m},{r},{n})", show(rec["budget"]), show(rec["built"]), show(rec["budget-exhausted"]),
        show(rec["no-joining-address"]), show(rec["dev_mean"], ".2f"), show(rec["dev_max"]),
        show(rec["over_bound"]), show(rec["nodes"]), show(rec["cpu_s"], ".2f"),
        show(above(rec["dev_mean"]), ".2f"), show(above(rec["dev_max"])),
    ]


def main() -> None:
    # Each run makes one budget, in the submodule of the constructor it calls.
    for module in ("graypool.recombine", "graypool.bba"):
        import_module(module).SearchBudget = _Budget
    for name, (requests, budgets, run) in TABLES.items():
        digest = hashlib.sha256()
        header = [f"{name} request", *(column for column, _ in COLUMNS[1:])]
        print("  ".join(c.rjust(w) for c, (_, w) in zip(header, COLUMNS)))
        for m, r, n in requests:
            for budget in budgets:
                rec = row(run, m, r, n, budget)
                print("  ".join(c.rjust(w) for c, (_, w) in zip(_cells(rec), COLUMNS)), flush=True)
                fixed = {k: v for k, v in rec.items() if k != "cpu_s"}
                digest.update(json.dumps(fixed, sort_keys=True).encode() + b"\n")
        print(f"{digest.hexdigest()}  {name} quality")


if __name__ == "__main__":
    main()
