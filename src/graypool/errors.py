"""Exception types shared across the package."""

from __future__ import annotations


class ConstructionError(Exception):
    """A constructor could not produce a code. ``kind`` is a stable machine tag."""

    kind = "construction-failed"


class BudgetExhaustedError(ConstructionError):
    kind = "budget-exhausted"


class InfeasibleError(ConstructionError):
    """The requested length exceeds the length bound; see ``bba._construct_masks``."""

    kind = "infeasible"


class NoJoiningAddressError(ConstructionError):
    kind = "no-joining-address"


class CombinePreconditionError(ValueError):
    """A pairwise combination precondition failed; the message names the condition."""


class NodeLimitError(Exception):
    """An exhaustive search hit its node limit before finishing.

    ``best`` carries the best object found so far, when one exists.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
