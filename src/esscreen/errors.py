"""Exception types shared across the package."""


class EsscreenError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(EsscreenError, ValueError):
    """A model or bound parameter is outside its admissible range."""


class InvalidStrategyError(EsscreenError, ValueError):
    """A screening strategy violates its structural invariants."""


class InfeasiblePlanError(EsscreenError):
    """No strategy on the planning grid fits inside the budget."""


class TrainingDivergedError(EsscreenError):
    """Gradient descent produced a non-finite loss.

    Carries the iteration index at which the loss exploded.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class PolicyError(EsscreenError):
    """A trained policy is missing, incompatible, or requested an
    infeasible action at run time."""
