"""Exception types shared across the package, the line readers of its
side-input files, whose errors name the file and line, and the path of
its bundled data files."""

from contextlib import contextmanager
from importlib import resources
from pathlib import Path


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
    Lines end at ``\\r\\n``, ``\\r`` or ``\\n``, as the readers' universal
    newlines split them. Neither byte is ever part of a multi-byte
    character, so that is the first line whose bytes fail to decode on
    their own. Latin-1 maps each byte to one character, so the lines are
    split one at a time without decoding them."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, encoding="latin-1") as stream:
            for line_number, line in enumerate(stream, start=1):
                raw = line.encode("latin-1")
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise not_utf8(path, line_number, raw, exc) from None
        raise SchemaError(f"{path}: not UTF-8") from None


def not_utf8(path, line_number: int, raw: bytes, exc: UnicodeDecodeError) -> SchemaError:
    """The error for line ``line_number`` of ``path``, whose bytes ``raw``
    failed to decode with ``exc``."""
    return SchemaError(
        f"{path}:{line_number}: not UTF-8: {exc.reason} (byte 0x{raw[exc.start]:02x})"
    )


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file ``path``, split at ``\\r\\n``,
    ``\\r`` and ``\\n`` only, as ``open``'s universal newlines split
    them: ``str.splitlines`` would also split inside a line at U+2028,
    U+0085, a form feed and the like, and so number the lines after it
    wrong. A byte that is not UTF-8 is a SchemaError naming its line."""
    with naming_decode_errors(path):
        return Path(path).read_text(encoding="utf-8").split("\n")


def content_lines(path):
    """Each ``(line_number, line)`` of ``read_lines(path)`` that is not
    blank once a ``#`` comment is cut off, stripped of its whitespace."""
    for line_number, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_number, line


def bundled(name: str):
    """The path of the data file ``name`` that ships with the package."""
    return resources.files("genscope.data") / name
