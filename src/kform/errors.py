"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`KformError`,
so callers (including the CLI) can distinguish usage problems from genuine
numerical failures.  Index violations raise the built-in ``IndexError``.
"""


class KformError(Exception):
    """Base class for package-specific errors."""


class DimensionError(KformError, ValueError):
    """Array shapes, arities, or degrees are inconsistent with the operation."""


class DefinitenessError(KformError, ValueError):
    """A matrix required to be positive definite is not."""


class DomainError(KformError, ValueError):
    """A point lies outside the chart domain, or the chart has no reach there."""


class ExprSyntaxError(KformError, ValueError):
    """An expression string violates the map grammar.

    Carries the 0-based ``position`` of the offending character when known.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class SingularEvaluationError(KformError, ArithmeticError):
    """A map or series was evaluated at a pole of one of its components."""


class EvaluationLimitError(KformError, ArithmeticError):
    """A map's value, or a series coefficient, overflows."""


class DegenerateSampleError(KformError, ValueError):
    """A sample point produced an identically vanishing reference form."""


class PreconditionError(KformError, ValueError):
    """A mathematical precondition of the requested conclusion fails."""


class ScenarioError(KformError, ValueError):
    """A scenario document is invalid; the message names the offending field."""
