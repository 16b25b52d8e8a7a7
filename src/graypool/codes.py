"""Core model: codes, their JSON and CSV files, and balance statistics.

An address is an int bitmask where bit ``i - 1`` holds pool ``i``; it is
the library's only representation of an address, in and out of its public
functions. Pools are numbered from 1 only at the edges, where pool numbers
are read or written: JSON and CSV files, the CLI, ``GrayCode.from_index_sets``,
``PoolDecoder.decode``, ``apply_row_permutation`` and ``CombinationTrace``.
All types are immutable values. The pool view of a code is one column per
pool, an int whose bit j says that address j holds the pool; ``_columns`` is
the one transpose into it, for occupancy counts, CSV rows and the decoder.

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
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import groupby, repeat
from math import comb
from operator import and_, or_, rshift
from pathlib import Path
from typing import Iterable, Sequence


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
    about 90 kB each; above them each nonzero byte is read from the first
    table and offset, so memory does not grow with the mask's width and
    time grows linearly with it. Above pool 20 a mask with fewer than 64
    set bits, such as a decoder answer over a long code, has its lowest set
    bit peeled off instead, one at a time. Each peel rewrites the whole int,
    so the cap on set bits keeps that branch linear in the width too.
    """
    out = _LOW_BITS[mask & 1023]
    mask >>= 10
    if mask:
        out += _HIGH_BITS[mask & 1023]
        mask >>= 10
        if mask:
            rest: list[int] = []
            if mask.bit_count() < 64:
                while mask:
                    low = mask & -mask
                    rest.append(low.bit_length() + 19)
                    mask ^= low
            else:
                data = mask.to_bytes(-(-mask.bit_length() // 8), "little")
                for base, byte in zip(range(20, 8 * len(data) + 20, 8), data):
                    if byte:
                        rest += [base + i for i in _LOW_BITS[byte]]
            out += tuple(rest)
    return out


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Unpack a non-negative bitmask into sorted 1-based pool indices."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    return tuple([i + 1 for i in _set_bits(mask)])


def _unions(masks: Sequence[int]) -> list[int]:
    """The consecutive unions of a mask list: mask j OR mask j+1."""
    return list(map(or_, masks, masks[1:]))


def _columns(masks: Sequence[int]) -> dict[int, int]:
    """The column of each 0-based pool that some mask holds: bit j set when
    ``masks[j]`` holds it. For each word of pools that holds a pool, a block
    of at most 4096 masks packs its words into an array, read as one int
    whose binary string holds each column of the block as a strided slice."""
    word = 8 * array("I").itemsize
    columns: dict[int, int] = {}
    for base, pools in groupby(_set_bits(reduce(or_, masks, 0)), lambda p: p - p % word):
        pools = list(pools)
        for start in range(0, len(masks), 4096):
            block = map(rshift, masks[start : start + 4096], repeat(base))
            packed = array("I", map(and_, block, repeat((1 << word) - 1)))
            bits = format(int.from_bytes(packed.tobytes(), "little"), f"0{len(packed) * word}b")
            for p in pools:  # the slice starts at the block's last mask
                columns[p] = columns.get(p, 0) | int(bits[word - 1 - p + base :: word], 2) << start
    return columns


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
            if type(x) is not int:
                raise ValueError(f"bitmask {x!r} is not an int")
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
    for p, column in _columns(code.masks).items():
        counts[p] = column.bit_count()
    return BalanceVector(tuple(counts))


def length_bound(m: int, r: int) -> int:
    """Maximum possible code length for the given pool count and weight.

    That is min(C(m, r), C(m, r+1) + 1), with C(m, r+1) derived from C(m, r):
    ``comb`` is almost all of the cost for large m.
    """
    if m < 1:
        raise ValueError(f"pool count must be at least 1, got {m}")
    if r < 1 or r > m:
        raise ValueError(f"weight {r} out of range 1..{m}")
    c = comb(m, r)
    return min(c, c * (m - r) // (r + 1) + 1)


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
    spec, columns = f"0{code.n}b", _columns(code.masks)
    return "".join([",".join(format(columns.get(p, 0), spec)[::-1]) + "\n" for p in range(code.m)])


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
    are rejected rather than converted. An address that lists a pool twice
    is rejected too.
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
    code = GrayCode.from_index_sets(m, r, sets)
    # A repeated pool sets its bit once, so an address with one has more
    # entries than bits.
    if sum(map(len, sets)) != sum(map(int.bit_count, code.masks)):
        j = next(j for j, x in enumerate(code.masks) if len(sets[j]) != x.bit_count())
        raise ValueError(f"address {j + 1} lists a pool twice: {sets[j]}")
    return code


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
