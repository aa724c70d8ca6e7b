"""Exception hierarchy shared by all modules.

Every concrete error derives from one of two bases, which decide the CLI
exit code: InvalidInputError (2) or NumericalFailureError (3).
"""


class ConvexEncloseError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ConvexEncloseError):
    """The request cannot be served as given (CLI exit code 2)."""


class NumericalFailureError(ConvexEncloseError):
    """A valid request failed in the computation (CLI exit code 3)."""


class DomainError(InvalidInputError):
    """A point, window, or parameter lies outside the valid domain."""


class UndefinedSideError(InvalidInputError):
    """A one-sided derivative was requested on the side that does not exist."""


class UnboundedSlopeError(InvalidInputError):
    """An endpoint slope is infinite where a finite one is required."""


class NonConvexError(InvalidInputError):
    """Sampled falsification found a convexity violation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PartitionError(InvalidInputError):
    """Partition nodes or tags are inconsistent with the target domain."""


class BudgetExceededError(NumericalFailureError):
    """Refinement hit the cell budget, or showed that the budget cannot
    reach tol; carries the best result so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class OracleFailureError(NumericalFailureError):
    """The reference integrator did not converge."""


class InconsistentModelError(InvalidInputError):
    """The pieces of a probability model contradict each other."""


class InvalidDistributionError(InvalidInputError):
    """Weights are not a strictly positive probability vector."""


class InternalInconsistencyError(NumericalFailureError):
    """A certified inequality failed, indicating an invalid input object."""


class ExtendedArithmeticError(NumericalFailureError):
    """An undefined extended-real form: inf - inf, 0 * inf, or NaN."""


class ExpressionError(InvalidInputError):
    """Parse or lowering failure, with source position when known."""

    def __init__(self, message, source=None, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.source = source
        self.position = position
