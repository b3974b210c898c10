"""Exception hierarchy shared across the package.

The CLI maps every OpendynError to exit code 2 (bad input, or a file that
cannot be read or written) and keeps exit code 1 for genuine check failures.
Messages show a value through `_shown`, so that an integer too long to
print does not turn a refusal into a bare `ValueError`.
"""

from sys import get_int_max_str_digits


def _shown(value, form=repr) -> str:
    """`form(value)`, or for an integer past the interpreter's limit on the
    digits of an int written in decimal, a description of it."""
    try:
        return form(value)
    except ValueError:
        what = "an integer" if isinstance(value, int) else "a value holding an integer"
        return f"({what} of more than {get_int_max_str_digits()} digits)"


class OpendynError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(OpendynError):
    """A value violates a structural invariant (duplicate label, partial table, ...)."""


class BoundaryError(OpendynError):
    """Two pieces of data that must share a boundary do not (set or interface mismatch)."""


class FileAccessError(OpendynError):
    """A project file could not be read, or an output file written. Names the path."""


class ExprSyntaxError(OpendynError):
    """Expression text failed to parse. Carries the message without its
    position, and the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class ExprEvalError(OpendynError):
    """Expression evaluation hit an unbound variable or a numeric domain error."""


class IntegrationError(OpendynError):
    """Numerical integration produced a non-finite value. Carries the blow-up time."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time
