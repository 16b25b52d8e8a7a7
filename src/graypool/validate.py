"""Constraint checking for candidate codes.

A sequence of addresses is a valid code when all addresses are pairwise
distinct, every address has the declared weight, adjacent addresses are at
Hamming distance 2, and the OR-sums of adjacent pairs are pairwise distinct.
Reports are exhaustive: every violation is listed, not just the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .codes import BalanceVector, GrayCode, _unions, balance_of, length_bound

DISTINCT_ADDRESSES = "distinct-addresses"
DISTINCT_OR_SUMS = "distinct-or-sums"
CONSTANT_WEIGHT = "constant-weight"
ADJACENT_DISTANCE = "adjacent-distance"


@dataclass(frozen=True)
class Violation:
    """One failed constraint; ``where`` holds the offending 1-based index or pair."""

    constraint: str
    where: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    is_valid: bool
    violations: tuple[Violation, ...]
    balance: BalanceVector
    meets_bound: bool

    def to_json_dict(self) -> dict:
        return {
            "is_valid": self.is_valid,
            "violations": [
                {"constraint": v.constraint, "where": list(v.where)}
                for v in self.violations
            ],
            "balance": list(self.balance.counts),
            "deviation": self.balance.deviation,
            "meets_bound": self.meets_bound,
        }


def _repeats(masks: Iterable[int], constraint: str) -> list[Violation]:
    """One violation for each mask seen before, naming the 1-based positions
    of its first sighting and of the repeat."""
    first_seen: dict[int, int] = {}
    violations = []
    for j, mask in enumerate(masks, start=1):
        first = first_seen.setdefault(mask, j)
        if first != j:
            violations.append(Violation(constraint, (first, j)))
    return violations


def validate(code: GrayCode) -> ValidationReport:
    """Check every code constraint and report all violations found."""
    masks = code.masks
    n = len(masks)
    violations = _repeats(masks, DISTINCT_ADDRESSES)

    for j, mask in enumerate(masks, start=1):
        if mask.bit_count() != code.r:
            violations.append(Violation(CONSTANT_WEIGHT, (j,)))

    for j in range(n - 1):
        if (masks[j] ^ masks[j + 1]).bit_count() != 2:
            violations.append(Violation(ADJACENT_DISTANCE, (j + 1, j + 2)))

    violations += _repeats(_unions(masks), DISTINCT_OR_SUMS)

    return ValidationReport(
        is_valid=not violations,
        violations=tuple(violations),
        balance=balance_of(code),
        meets_bound=1 <= code.r <= code.m and n == length_bound(code.m, code.r),
    )
