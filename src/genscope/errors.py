"""Exception types shared across the package."""

from contextlib import contextmanager


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


@contextmanager
def naming_decode_errors(path):
    """Turn a UnicodeDecodeError raised while ``path`` is read into a
    SchemaError that names the file and its first line that is not UTF-8.
    A newline byte is never part of a multi-byte character, so that is the
    first line whose bytes fail to decode on their own."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as stream:
            for line_number, raw in enumerate(stream, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SchemaError(
                        f"{path}:{line_number}: not UTF-8: {exc.reason} "
                        f"(byte 0x{raw[exc.start]:02x})"
                    ) from None
        raise SchemaError(f"{path}: not UTF-8") from None
