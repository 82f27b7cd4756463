"""Exception types shared across the simulator.

Errors are for misuse of the API or malformed configuration.  Guest-level
findings (bad memory accesses, uninitialized reads, arithmetic traps) are
not errors: they are recorded as violations and the run continues.
"""

from __future__ import annotations


class PartsanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PartsanError):
    """Invalid configuration or precondition violation by the caller.

    ``path`` is a JSON-pointer-style location when the error originates
    from scenario loading, e.g. ``/partitions/0/regions/1/size``.
    """

    def __init__(self, message: str, path: str | None = None):
        self.message = message
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class EncodingError(PartsanError):
    """Shadow encoding cannot represent the requested validity pattern."""


class ParseError(PartsanError):
    """Syntax error in an annotation template."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class UnknownType(PartsanError):
    """A type name used in an annotation has no known size."""


class BindError(PartsanError):
    """A syscall parameter could not be bound to a concrete address/size;
    ``param`` names the parameter when the error is about its binding."""

    def __init__(self, message: str, param: str | None = None):
        self.param = param
        super().__init__(message)
