"""Exception types shared across the package, and the work budget
that ``BudgetError`` enforces."""

# Loop-count cap for exact searches; sized so ell <= 3, N <= 32, F <= 12
# always runs.
DEFAULT_BUDGET = 10**9


class Error(Exception):
    """Base class for all package errors."""


class ParameterError(Error, ValueError):
    """A caller-supplied parameter violates a documented precondition."""


class DomainError(Error, ArithmeticError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetError(Error):
    """An exact computation would exceed the configured work budget.

    ``estimate`` is the precomputed loop-count estimate that tripped the
    check; ``verified_lower_bound`` is set by searches that certified a
    partial result before running out of budget.
    """

    def __init__(self, message, estimate=None, budget=None,
                 verified_lower_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget
        self.verified_lower_bound = verified_lower_bound


class ParseError(Error, ValueError):
    """A family file or report is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalError(Error):
    """An internal invariant failed; indicates a bug, not bad input."""


def work_budget(budget, default: int) -> int:
    """The budget a call runs under: ``default`` for None; a negative
    budget is refused, while 0 is a budget that refuses any work."""
    if budget is None:
        return default
    if budget < 0:
        raise ParameterError(f"budget must be >= 0, got {budget}")
    return budget
