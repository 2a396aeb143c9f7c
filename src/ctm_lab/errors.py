"""Exception types shared across the package."""


class CtmLabError(Exception):
    """Base class for all errors raised by ctm-lab.

    path names the input file the error was found in, when there is one;
    the message then starts with it.
    """

    path = None

    def __str__(self):
        message = super().__str__()
        return message if self.path is None else f"{self.path}: {message}"


class ValidationError(CtmLabError):
    """Invalid argument, malformed value, or mismatched metadata."""


class ParseError(CtmLabError):
    """Malformed text input; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_int(name: str, value) -> None:
    """ValidationError unless value is an int; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an int, got {value!r}")
