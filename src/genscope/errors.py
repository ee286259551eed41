"""Exception types shared across the package."""


class GenscopeError(Exception):
    """Base class for all package-specific errors."""


class QuerySyntaxError(GenscopeError):
    """Malformed search query. Carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message = message
        self.offset = offset


class SchemaError(GenscopeError):
    """A record or file violates its documented schema."""


class ModelFormatError(GenscopeError):
    """Model file is corrupt, truncated, or from an unsupported version."""


class InputError(GenscopeError):
    """Caller passed data that violates an operation's preconditions."""


class TrainingError(GenscopeError):
    """Optimization produced a non-finite loss or otherwise diverged."""
