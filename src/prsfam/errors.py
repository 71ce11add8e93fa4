"""Exception types shared across the package, ``check_budget``, the
one owner of the work budget that ``BudgetError`` enforces, and
``Record``, the base of the package's immutable value classes."""

# True only under a type checker, which reads every module's guarded
# imports; defined here so that no module imports ``typing`` at run time.
TYPE_CHECKING = False

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


def _shown(count: int) -> str:
    """``count`` in digits when it has at most 30 of them, else as the
    power of two that its magnitude reaches: a longer number is not read
    digit by digit, and past the int digit limit ``str`` refuses it.  A
    value that is not an int is shown by ``str``."""
    if not isinstance(count, int) or -10**30 < count < 10**30:
        return str(count)
    if count < 0:
        return f"-2^{count.bit_length() - 1} or less"
    return f"2^{count.bit_length() - 1} or more"


def _repr(value) -> str:
    """``repr(value)``, each int in it, in nested tuples too, through
    ``_shown``."""
    if type(value) is int:
        return _shown(value)
    if type(value) is tuple:
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return repr(value)


def check_budget(estimate: int, budget, what: str,
                 default: int = DEFAULT_BUDGET,
                 verified_lower_bound=None) -> int:
    """The one budget decision: resolve ``budget`` (``default`` for
    None; a negative one is a ``ParameterError``, 0 refuses any work),
    refuse ``what`` when its ``estimate`` exceeds it, and return it."""
    if budget is None:
        budget = default
    elif budget < 0:
        raise ParameterError(f"budget must be >= 0, got {_shown(budget)}")
    if estimate > budget:
        certified = ("" if verified_lower_bound is None else
                     f"; value >= {verified_lower_bound} is certified")
        raise BudgetError(f"{what} needs an estimated {_shown(estimate)} "
                          f"loop steps, budget is {_shown(budget)}{certified}",
                          estimate, budget, verified_lower_bound)
    return budget


class Record:
    """An immutable value: the base of ``Family``, the three measure
    records and ``BoundReport``.  It does for them what
    ``@dataclass(frozen=True)`` did, without importing ``dataclasses``
    (and through it ``inspect``), which cost every command start-up.

    A subclass names its fields, in constructor order, in ``__slots__``
    (and ``__match_args__``), and maps the trailing optional ones to
    their defaults in ``_defaults``; a class given as a default is
    called for a fresh value per instance.  Construction takes the
    fields by position or keyword.  ``==`` and ``hash`` read the fields
    not in ``_uncompared``, and ``repr`` shows those not in
    ``_unshown``, each int, in tuples too, through ``_shown``.
    Assigning or deleting an attribute raises ``AttributeError``; copies
    and pickles are rebuilt through the constructor, since
    ``__setattr__`` blocks the default slot restore.
    """

    __slots__ = ()
    _defaults = {}
    _uncompared = _unshown = ()

    def __init__(self, *args, **kwargs):
        names, defaults = self.__slots__, self._defaults
        values = dict(zip(names, args), **kwargs)
        if (len(values) < len(args) + len(kwargs)
                or values.keys() | defaults.keys() != set(names)):
            raise TypeError(f"{type(self).__name__}() takes fields {names}")
        for name in names:
            if name not in values:
                value = defaults[name]
                values[name] = value() if isinstance(value, type) else value
            object.__setattr__(self, name, values[name])

    def _values(self, skip=()) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__ if n not in skip)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        skip = self._uncompared
        return self._values(skip) == other._values(skip)

    def __hash__(self):
        return hash(self._values(self._uncompared))

    def __repr__(self):
        values = ((n, getattr(self, n)) for n in self.__slots__
                  if n not in self._unshown)
        shown = (f"{n}={_repr(v)}" for n, v in values)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()
