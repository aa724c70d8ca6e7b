"""Exception hierarchy shared by all modules."""


class ConvexEncloseError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ConvexEncloseError):
    """A point, window, or parameter lies outside the valid domain."""


class UndefinedSideError(ConvexEncloseError):
    """A one-sided derivative was requested on the side that does not exist."""


class NotDifferentiableError(ConvexEncloseError):
    """Left and right derivatives disagree where a two-sided one is needed."""


class UnboundedSlopeError(ConvexEncloseError):
    """An endpoint slope is infinite where a finite one is required."""


class NonConvexError(ConvexEncloseError):
    """Sampled falsification found a convexity violation."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class PartitionError(ConvexEncloseError):
    """Partition nodes or tags are inconsistent with the target domain."""


class BudgetExceededError(ConvexEncloseError):
    """Refinement hit the cell budget; carries the best result so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class OracleFailureError(ConvexEncloseError):
    """The reference integrator did not converge."""


class InconsistentModelError(ConvexEncloseError):
    """The pieces of a probability model contradict each other."""


class InvalidDistributionError(ConvexEncloseError):
    """Weights are not a strictly positive probability vector."""


class InternalInconsistencyError(ConvexEncloseError):
    """A certified inequality failed, indicating an invalid input object."""


class ExtendedArithmeticError(ConvexEncloseError):
    """An undefined extended-real form: inf - inf, 0 * inf, or NaN."""


class ExpressionError(ConvexEncloseError):
    """Parse or lowering failure, with source position when known."""

    def __init__(self, message, source=None, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.source = source
        self.position = position
