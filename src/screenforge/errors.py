"""Semantic exceptions shared across the package."""


class ScreenforgeError(Exception):
    """Base class for all package errors."""


class InvalidIntervalError(ScreenforgeError, ValueError):
    """An interval or box argument is degenerate or reversed."""


class BracketError(ScreenforgeError, ValueError):
    """Root bracketing failed: both endpoints have the same sign."""


class DensityZeroError(ScreenforgeError, ZeroDivisionError):
    """A density is zero at a point where a ratio is required."""


class RegularityError(ScreenforgeError, ValueError):
    """A regularity condition (single crossing, monotone virtual value)
    failed on the evaluation grid."""


class LpInfeasibleError(ScreenforgeError, RuntimeError):
    """The linear program has no feasible point."""


class LpUnboundedError(ScreenforgeError, RuntimeError):
    """The linear program is unbounded."""


class LpSolverError(ScreenforgeError, RuntimeError):
    """The LP solver stopped without an optimum or a proof of
    infeasibility or unboundedness."""


class ConvergenceError(ScreenforgeError, RuntimeError):
    """A solver optimum failed its independent re-check."""


class DegenerateCellError(ScreenforgeError, ValueError):
    """Discretization produced a materially negative cell mass."""


class ShapeMismatchError(ScreenforgeError, ValueError):
    """Mechanism tables do not match the instance's shapes."""


class ConfigError(ScreenforgeError, ValueError):
    """A run configuration is malformed or references unknown names."""
