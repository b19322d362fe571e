"""Exception hierarchy shared across the package."""


class MwrnomaError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MwrnomaError, ValueError):
    """Invalid configuration value or violated invariant."""


class UnsupportedParameterError(ConfigurationError):
    """Parameter outside the supported model family (e.g. non-integer fading shape)."""


class NumericError(MwrnomaError, ArithmeticError):
    """Numerical failure: overflow, non-convergence, or a non-finite intermediate."""


class SweepPointError(NumericError):
    """Numerical failure at one point of a multi-point Monte Carlo run.

    ``point`` is the index of the failing point in the caller's list and
    ``trial`` the first trial whose rate was not finite.
    """

    def __init__(self, point: int, trial: int):
        super().__init__(f"non-finite rate in trial {trial}")
        self.point = point
        self.trial = trial
