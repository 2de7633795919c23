"""Shared exception types; the CLI maps these onto exit codes."""


class FlatscapeError(Exception):
    """Base class for package errors."""


class ParseError(FlatscapeError, ValueError):
    """Malformed instance or report document."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"field '{field}': {message}")

    def __reduce__(self):  # pickle rebuilds from both arguments, not args
        return type(self), (self.field, self.message)


class ConsistencyError(FlatscapeError, ValueError):
    """Document contents contradict each other (e.g. edges vs coordinates)."""


class ConfigError(FlatscapeError, ValueError):
    """Invalid solver or operator configuration."""


class CapacityError(FlatscapeError, RuntimeError):
    """Instance exceeds an exact-computation limit; message names the limit."""


class ConvergenceError(FlatscapeError, RuntimeError):
    """Iterative solver failed to converge; carries residual diagnostics."""

    def __init__(self, message: str, residuals=None):
        self.residuals = residuals
        super().__init__(message)


class EmptyManifoldError(FlatscapeError, ValueError):
    """Requested configuration-graph manifold contains no independent sets."""
