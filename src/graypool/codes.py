"""Core model: codes, incidence matrices, and balance statistics.

An address is an int bitmask where bit ``i - 1`` holds pool ``i``; it is
the library's only representation of an address, in and out of its public
functions. Pools are numbered from 1 only at the edges, where pool numbers
are read or written: JSON and CSV files, the CLI, ``GrayCode.from_index_sets``,
``PoolDecoder.decode``, ``apply_row_permutation`` and ``CombinationTrace``.
All types are immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import comb
from pathlib import Path
from typing import Iterable


def mask_from_indices(indices: Iterable[int], m: int) -> int:
    """Pack 1-based pool indices, each an int (not a bool) in 1..m, into a bitmask."""
    mask = 0
    for i in indices:
        if type(i) is not int or not 1 <= i <= m:
            raise ValueError(f"pool index {i!r} out of range 1..{m}")
        mask |= 1 << (i - 1)
    return mask


@cache
def _chunk_bits(k: int) -> list[tuple[int, ...]]:
    """Set-bit positions of every value of the k-th 10-bit chunk of a mask."""
    table: list[tuple[int, ...]] = [()]
    for i in range(10 * k, 10 * k + 10):
        table += [t + (i,) for t in table]
    return table


_LOW_BITS = _chunk_bits(0)


def _set_bits(mask: int) -> tuple[int, ...]:
    """Ascending 0-based positions of the set bits of a non-negative ``mask``.

    Every loop over the pools of a mask, occupancy counts included, goes
    through here. Looking 10-bit chunks up in a table is about twice as fast
    as peeling off the low bit one at a time.
    """
    out = _LOW_BITS[mask & 1023]
    mask >>= 10
    k = 1
    while mask:
        out += _chunk_bits(k)[mask & 1023]
        mask >>= 10
        k += 1
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


@dataclass(frozen=True)
class IncidenceMatrix:
    """Binary matrix with one row per pool and one column per item."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("incidence matrix must have at least one row")
        width = len(self.rows[0])
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"ragged row {i + 1}: {len(row)} entries, expected {width}")
            if not {0, 1}.issuperset(row):
                raise ValueError(f"non-binary entry in row {i + 1}")
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])


def to_incidence(code: GrayCode) -> IncidenceMatrix:
    """Transpose a code into its incidence matrix (column j = address j)."""
    rows = tuple(tuple([(x >> i) & 1 for x in code.masks]) for i in range(code.m))
    return IncidenceMatrix(rows)


def from_incidence(matrix: IncidenceMatrix, r: int | None = None) -> GrayCode:
    """Read a code off an incidence matrix.

    When ``r`` is not given it is inferred from the first column (0 for an
    empty matrix); weight mismatches are left for the validator to report.
    """
    masks = [0] * matrix.n
    for i, row in enumerate(matrix.rows):
        masks = [x | 1 << i if bit else x for x, bit in zip(masks, row)]
    if r is None:
        r = masks[0].bit_count() if masks else 0
    return GrayCode(matrix.m, r, masks)


def incidence_to_csv(matrix: IncidenceMatrix) -> str:
    """Serialize as one comma-separated 0/1 line per pool, no header."""
    return "\n".join(",".join(str(x) for x in row) for row in matrix.rows) + "\n"


def incidence_from_csv(text: str) -> IncidenceMatrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [cell.strip() for cell in line.split(",")]
        row = []
        for cell in cells:
            if cell not in ("0", "1"):
                raise ValueError(f"line {lineno}: entry {cell!r} is not 0 or 1")
            row.append(int(cell))
        rows.append(tuple(row))
    return IncidenceMatrix(tuple(rows))


def code_to_json_dict(code: GrayCode, extra: dict | None = None) -> dict:
    """JSON object for a code; ``balance`` and ``deviation`` are derived fields."""
    balance = balance_of(code)
    obj = {
        "m": code.m,
        "r": code.r,
        "n": code.n,
        "addresses": [list(indices_from_mask(x)) for x in code.masks],
        "balance": list(balance.counts),
        "deviation": balance.deviation,
    }
    if extra:
        obj.update(extra)
    return obj


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
        path.write_text(incidence_to_csv(to_incidence(code)))
    else:
        path.write_text(json.dumps(code_to_json_dict(code, extra), indent=2) + "\n")


def load_code(path: str | Path) -> GrayCode:
    """Read a code from ``path``: CSV for a ``.csv`` extension, JSON otherwise."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return from_incidence(incidence_from_csv(text))
    return code_from_json_dict(json.loads(text))
