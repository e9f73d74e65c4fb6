"""Exception hierarchy shared across the toolkit."""


class LumitomoError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(LumitomoError, ValueError):
    """An argument violates a documented precondition."""


class SolverFailureError(LumitomoError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the final residual so callers can report it.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class StabilityViolationError(LumitomoError, RuntimeError):
    """The cone configuration leaves invisible directions (margin <= 0)."""


class InvalidOperatorError(LumitomoError, ValueError):
    """A linear map failed its forward/adjoint consistency (dot) test."""


class EmptyMaskError(LumitomoError, ValueError):
    """No cell exceeds the background threshold of an error metric."""


class ConfigError(LumitomoError, ValueError):
    """A run configuration is missing keys or holds malformed values."""


class WeightDegeneracyWarning(UserWarning):
    """The weight field is non-positive on a non-negligible support region."""
