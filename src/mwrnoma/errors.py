"""Exception hierarchy shared across the package."""


class MwrnomaError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MwrnomaError, ValueError):
    """Invalid configuration value or violated invariant; ``field`` names
    the argument a refusal is about where callers must tell it apart."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UnsupportedParameterError(ConfigurationError):
    """Parameter outside the supported model family (e.g. non-integer fading shape)."""


class NumericError(MwrnomaError, ArithmeticError):
    """Numerical failure: overflow, non-convergence, or a non-finite intermediate."""


class SweepPointError(NumericError):
    """Numerical failure at one point of a multi-point Monte Carlo run.

    ``point`` is the index of the failing point in the caller's list.
    ``trial`` is the first trial whose rate was not finite, or None when
    the point failed before any trial (its path loss overflows).
    """

    def __init__(self, point: int, message: str, trial: int | None = None):
        super().__init__(message)
        self.point = point
        self.trial = trial
