"""Exception hierarchy shared across the package.

The CLI maps every OpendynError to exit code 2 (bad input, or a file that
cannot be read or written) and keeps exit code 1 for genuine check failures.
"""


class OpendynError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OpendynError):
    """A value violates a structural invariant (duplicate label, partial table, ...)."""


class BoundaryError(OpendynError):
    """Two pieces of data that must share a boundary do not (set or interface mismatch)."""


class FileAccessError(OpendynError):
    """A project file could not be read, or an output file written. Names the path."""


class ExprSyntaxError(OpendynError):
    """Expression text failed to parse. Carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExprEvalError(OpendynError):
    """Expression evaluation hit an unbound variable or a numeric domain error."""


class IntegrationError(OpendynError):
    """Numerical integration produced a non-finite value. Carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time
