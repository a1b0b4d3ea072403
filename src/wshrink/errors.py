"""Exception types shared across the package."""


class EstimationError(RuntimeError):
    """Base class for solver failures (as opposed to invalid user input)."""


class LineSearchError(EstimationError):
    """No admissible step size found within the halving budget."""


class ConvergenceError(EstimationError):
    """An iterative solve stopped before its stopping test held."""


class LinearSolveError(EstimationError):
    """Inner linear system did not reach the requested residual."""


class SingularMatrixError(ValueError):
    """A matrix that must be invertible is numerically singular."""
