"""Shared exception types."""


class DomainError(ValueError):
    """A spatial point lies outside the closed unit ball."""


class TraceLimitError(RuntimeError):
    """A geodesic did not reach the boundary within the step budget.

    Usually a sign that the medium violates the convex-exit assumption
    (a trapped or nearly trapped ray) at the requested resolution.
    """


class AssemblyError(ValueError):
    """A linear system could not be assembled from the given data."""


class NumericalError(RuntimeError):
    """A numerical method produced non-finite values."""


class NonConvergenceError(RuntimeError):
    """An iterative solve stopped short of the requested tolerance."""


class ConfigError(ValueError):
    """An experiment configuration failed to parse or validate."""
