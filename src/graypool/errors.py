"""Exception types shared across the package."""

from __future__ import annotations


class ConstructionError(Exception):
    """A constructor could not produce a code. ``kind`` is a stable machine tag."""

    kind = "construction-failed"


class BudgetExhaustedError(ConstructionError):
    """A search spent its node or time budget; ``best`` is the best code so far, if any."""

    kind = "budget-exhausted"

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class InfeasibleError(ConstructionError):
    """The requested length exceeds the length bound; see ``bba._construct_masks``."""

    kind = "infeasible"


class NoJoiningAddressError(ConstructionError):
    kind = "no-joining-address"

