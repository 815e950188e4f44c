"""Exception types shared across the package."""


class SvkitError(Exception):
    """Base class for all svkit-specific failures."""


class InvalidConfigError(SvkitError):
    """A configuration value is outside the supported range."""


class NonConvergenceError(SvkitError):
    """An iterative solver failed to converge within its iteration cap."""


class SingularMatrixError(SvkitError):
    """A control-volume recovery matrix could not be factorized."""


class NonFiniteError(SvkitError):
    """A solution coefficient became NaN or infinite during time stepping."""


class BelowRoundoffError(SvkitError):
    """An error value sits at roundoff level; a convergence order is undefined."""


class UnknownCaseError(SvkitError):
    """Requested manufactured-solution case id does not exist."""
