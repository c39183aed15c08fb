"""Exception hierarchy shared by all modules."""


class LampirsError(Exception):
    """Base class for all package errors."""


class ContextError(LampirsError):
    """Operands belong to incompatible ambient contexts (modulus or rank)."""


class DomainError(LampirsError, ValueError):
    """An argument is outside the documented domain of an operation."""


class PreconditionError(LampirsError):
    """A stated precondition was violated (e.g. the given period is not a period)."""


class ResourceBudgetError(LampirsError):
    """Requested work (an enumeration, a form, a ball, a window, an input
    span) would exceed its documented desk-scale budget.

    ``what`` names the quantity in its context; the one message reads
    "<what> <requested> exceeds the budget <budget>".
    """

    def __init__(self, what, requested, budget):
        super().__init__(f"{what} {requested} exceeds the budget {budget}")
        self.requested = requested
        self.budget = budget


class ConsistencyError(LampirsError):
    """A computed result contradicts a property that must hold; never ignored."""


class FormatError(LampirsError, ValueError):
    """Malformed textual or JSON input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
