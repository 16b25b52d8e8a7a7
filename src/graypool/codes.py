"""Core model: codes, their JSON and CSV files, and balance statistics.

An address is an int bitmask where bit ``i - 1`` holds pool ``i``; it is
the library's only representation of an address, in and out of its public
functions. Pools are numbered from 1 only at the edges, where pool numbers
are read or written: JSON and CSV files, the CLI, ``GrayCode.from_index_sets``,
``PoolDecoder.decode``, ``apply_row_permutation`` and ``CombinationTrace``.
All types are immutable values.

A code file is JSON or CSV. JSON is ``json.dumps(code_to_json_dict(code),
indent=2)`` plus a newline. CSV has one line of comma-separated 0/1 cells
per pool and one column per address, no header; a reader strips the cells
and skips blank lines. A code with no addresses has a JSON file only. Both
codecs handle whole rows and columns with string operations rather than a
Python step per cell.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Iterable


def _check_pool_count(m: int) -> None:
    """Reject a pool count too large to size a list or a range loop by."""
    if m > sys.maxsize:
        raise ValueError(f"pool count {m} exceeds {sys.maxsize}")


def mask_from_indices(indices: Iterable[int], m: int) -> int:
    """Pack 1-based pool indices, each an int (not a bool) in 1..m, into a bitmask."""
    mask = 0
    for i in indices:
        if type(i) is not int or not 1 <= i <= m:
            raise ValueError(f"pool index {i!r} out of range 1..{m}")
        mask |= 1 << (i - 1)
    return mask


def _chunk_bits(k: int) -> list[tuple[int, ...]]:
    """Set-bit positions of every value of the k-th 10-bit chunk of a mask."""
    table: list[tuple[int, ...]] = [()]
    for i in range(10 * k, 10 * k + 10):
        table += [t + (i,) for t in table]
    return table


_LOW_BITS = _chunk_bits(0)
_HIGH_BITS = _chunk_bits(1)


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending 0-based positions of the set bits of a non-negative ``mask``.

    Every loop over the pools of a mask, occupancy counts included, goes
    through here. Looking 10-bit chunks up in a table is about twice as fast
    as peeling off the low bit one at a time. Only pools 1..20 have tables,
    about 90 kB each; above them each nonzero chunk is read from the first
    table and offset, so memory does not grow with the mask's width.
    """
    out = _LOW_BITS[mask & 1023]
    mask >>= 10
    if mask:
        out += _HIGH_BITS[mask & 1023]
        mask >>= 10
        if mask:
            rest: list[int] = []
            base = 20
            while mask:
                if chunk := mask & 1023:
                    rest += [base + i for i in _LOW_BITS[chunk]]
                mask >>= 10
                base += 10
            out += tuple(rest)
    return out


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into sorted 1-based pool indices."""
    return tuple([i + 1 for i in _set_bits(mask)])


@dataclass(frozen=True)
class BalanceVector:
    """Per-pool occupancy counts of a code."""

    counts: tuple[int, ...]

    @property
    def deviation(self) -> int:
        """Spread between the most and least occupied pool (0 for empty)."""
        if not self.counts:
            return 0
        return max(self.counts) - min(self.counts)


@dataclass(frozen=True)
class GrayCode:
    """Ordered sequence of addresses over ``m`` pools with declared weight ``r``.

    ``masks`` holds the addresses as int bitmasks, bit ``i - 1`` for pool
    ``i``; any iterable of masks is stored as a tuple. The constructor
    enforces shape only (every mask fits in ``m`` pools). Whether the
    sequence actually satisfies the code constraints, including that every
    address has weight ``r``, is reported by ``validate``; partial and
    invalid sequences are legal values during construction.
    """

    m: int
    r: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"pool count must be at least 1, got {self.m}")
        _check_pool_count(self.m)
        if self.r < 0 or self.r > self.m:
            raise ValueError(f"address weight {self.r} out of range 0..{self.m}")
        masks = tuple(self.masks)
        limit = 1 << self.m
        for x in masks:
            if not 0 <= x < limit:
                raise ValueError(f"bitmask {x:#x} out of range for m={self.m}")
        object.__setattr__(self, "masks", masks)

    @classmethod
    def from_index_sets(cls, m: int, r: int, sets: Iterable[Iterable[int]]) -> "GrayCode":
        return cls(m, r, tuple(mask_from_indices(s, m) for s in sets))

    @property
    def n(self) -> int:
        return len(self.masks)

    def bitmasks(self) -> tuple[int, ...]:
        return self.masks


def balance_of(code: GrayCode) -> BalanceVector:
    """Count, per pool, how many addresses of the code use it."""
    counts = [0] * code.m
    for x in code.masks:
        for i in _set_bits(x):
            counts[i] += 1
    return BalanceVector(tuple(counts))


def length_bound(m: int, r: int) -> int:
    """Maximum possible code length for the given pool count and weight."""
    if r < 1 or r > m:
        raise ValueError(f"weight {r} out of range 1..{m}")
    return min(comb(m, r), comb(m, r + 1) + 1)


_BITS = frozenset(("0", "1"))


def _csv_rows(text: str) -> list[list[str]]:
    """The non-blank lines of CSV text as lists of "0"/"1" cells.

    Cells and lines are stripped of whitespace and blank lines are skipped.
    Rows must all have the width of the first, and there must be one.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = line.split(",")
        if not _BITS.issuperset(cells):
            line = line.strip()
            if not line:
                continue
            cells = [cell.strip() for cell in line.split(",")]
            for cell in cells:
                if cell not in _BITS:
                    raise ValueError(f"line {lineno}: entry {cell!r} is not 0 or 1")
        rows.append(cells)
    if not rows:
        raise ValueError("incidence matrix must have at least one row")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged row {i + 1}: {len(row)} entries, expected {width}")
    return rows


def _code_from_csv(text: str) -> GrayCode:
    """Read a CSV code, column j as address j; ``r`` is the first column's weight."""
    rows = _csv_rows(text)
    masks = [int("".join(column)[::-1], 2) for column in zip(*rows)]
    return GrayCode(len(rows), masks[0].bit_count(), masks)


def _code_to_csv(code: GrayCode) -> str:
    """Write a code as CSV, address j as column j.

    Blank rows would not read back, so a code with no addresses is rejected.
    """
    if not code.masks:
        raise ValueError("a CSV code file needs at least one address")
    spec = f"0{code.m}b"
    columns = [format(x, spec)[::-1] for x in code.masks]
    return "\n".join([",".join(row) for row in zip(*columns)]) + "\n"


def _json_object(code: GrayCode, addresses: list, extra: dict | None) -> dict:
    balance = balance_of(code)
    obj = {
        "m": code.m,
        "r": code.r,
        "n": code.n,
        "addresses": addresses,
        "balance": list(balance.counts),
        "deviation": balance.deviation,
    }
    if extra:
        obj.update(extra)
    return obj


def code_to_json_dict(code: GrayCode, extra: dict | None = None) -> dict:
    """JSON object for a code; ``balance`` and ``deviation`` are derived fields."""
    return _json_object(code, [list(indices_from_mask(x)) for x in code.masks], extra)


def code_to_json(code: GrayCode, extra: dict | None = None) -> str:
    """``json.dumps(code_to_json_dict(code, extra), indent=2)`` and a newline.

    Only the small header goes through ``json.dumps``. The addresses are
    formatted here in its layout and spliced in at the top-level key: that
    is the only ``"addresses"`` line indented by two spaces, since nested
    keys are indented further and strings hold no raw newline.
    """
    hole: list = []
    obj = _json_object(code, hole, extra)
    text = json.dumps(obj, indent=2)
    if obj["addresses"] is not hole or not code.masks:
        return text + "\n"
    pools = [str(i) for i in range(1, code.m + 1)]
    items = [
        "[\n      " + ",\n      ".join([pools[i] for i in _set_bits(x)]) + "\n    ]" if x else "[]"
        for x in code.masks
    ]
    head, tail = text.split('\n  "addresses": []', 1)
    return head + '\n  "addresses": [\n    ' + ",\n    ".join(items) + "\n  ]" + tail + "\n"


def code_from_json_dict(obj: dict) -> GrayCode:
    """Rebuild a code from its JSON object; derived fields are recomputed, not trusted.

    ``m``, ``r`` and ``n`` must be JSON integers: floats, strings and booleans
    are rejected rather than converted.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a code must be a JSON object, got a JSON {type(obj).__name__}")
    try:
        m, r, sets = obj["m"], obj["r"], obj["addresses"]
    except KeyError as exc:
        raise ValueError(f"malformed code object: missing field {exc}") from exc
    for field in ("m", "r", "n"):
        if field in obj and type(obj[field]) is not int:
            raise ValueError(f"malformed code object: {field} must be an integer, got {obj[field]!r}")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ValueError("malformed code object: addresses must be a list of pool-index lists")
    if "n" in obj and obj["n"] != len(sets):
        raise ValueError(f"declared n={obj['n']} but {len(sets)} addresses present")
    return GrayCode.from_index_sets(m, r, sets)


def save_code(code: GrayCode, path: str | Path, extra: dict | None = None) -> None:
    """Write a code to ``path``: CSV for a ``.csv`` extension, JSON with ``extra`` otherwise."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        path.write_text(_code_to_csv(code))
    else:
        path.write_text(code_to_json(code, extra))


def load_code(path: str | Path) -> GrayCode:
    """Read a code from ``path``: CSV for a ``.csv`` extension, JSON otherwise."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return _code_from_csv(text)
    return code_from_json_dict(json.loads(text))
