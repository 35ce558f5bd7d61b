"""Exception types shared across the package.

The CLI maps these onto distinct process exit codes, so keep the
hierarchy flat and purpose-specific.
"""


class SimlocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SimlocError):
    """A scenario configuration is incomplete, inconsistent, or out of range."""


class ConditioningError(SimlocError):
    """A linear system is singular or too ill-conditioned to solve reliably."""


class OptimizationError(SimlocError):
    """The surface optimizer hit a non-recoverable numerical state (non-finite
    objective, target without orthonormal rows)."""


class EstimationError(SimlocError):
    """An estimator could not be evaluated (rank-deficient operator, zero input)."""
