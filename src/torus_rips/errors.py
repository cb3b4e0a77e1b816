"""Shared exception types for contract violations and resource budgets."""

from __future__ import annotations


class BudgetError(RuntimeError):
    """A configured resource budget was exceeded (simplex count, matrix size, time)."""


class SimplexBudgetError(BudgetError):
    """The clique-tree scan hit the global simplex budget.

    Carries the budget, the dimension that was being enumerated when the
    budget ran out and ``count``, the running simplex total that passed the
    budget, so callers can report how far the enumeration got.
    """

    def __init__(self, budget: int, dim: int, count: int) -> None:
        super().__init__(
            f"simplex budget of {budget} exceeded while enumerating dimension {dim} "
            f"at {count} simplices"
        )
        self.budget = budget
        self.dim = dim
        self.count = count


class UnsupportedRegimeError(ValueError):
    """No closed-form facet catalog exists for the requested (n, k) regime."""


class TruncatedComplexError(ValueError):
    """An operation needs deeper enumeration than the complex carries."""
