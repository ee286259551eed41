"""Exception types shared across the package, ``Lines``, the one reader
of its input files' text, whose errors name the file and line, and the
path of its bundled data files."""

import sys
from importlib import resources


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


def not_utf8(path, line_number: int, raw: bytes, exc: UnicodeDecodeError) -> SchemaError:
    """The error for line ``line_number`` of ``path``, whose bytes ``raw``
    failed to decode with ``exc``."""
    return SchemaError(
        f"{path}:{line_number}: not UTF-8: {exc.reason} (byte 0x{raw[exc.start]:02x})"
    )


# Bytes of whole lines that a reader decodes at once; an emoji decodes to 4
# bytes. On a shared 2-vCPU Xeon host, blocks of 8 to 32 KiB read a 6 MB
# benchmark corpus as fast as a TextIOWrapper (11-12 ms, best of 7). In whole
# analyze runs on it (15 each), 8 and 16 KiB kept the TextIOWrapper's peak
# RSS, while 32 KiB raised it by 0.9 MB with --model and 1 MiB by 9 MB.
TEXT_BLOCK = 16 << 10


def _blocks(stream, size: int | None):
    """The next ``size`` bytes of the binary ``stream`` (the rest of it
    when None) in blocks of about ``TEXT_BLOCK`` bytes, each but the last
    ending just after a ``\\n``, so that no block splits a line or a
    ``\\r\\n``."""
    left = sys.maxsize if size is None else size
    while left > 0 and (block := stream.read(min(TEXT_BLOCK, left))):
        block += stream.readline(left - len(block))
        left -= len(block)
        yield block


def _line_ends_before(path, offset: int) -> int:
    """How many lines end in the first ``offset`` bytes of the file at
    ``path``."""
    with open(path, "rb") as stream:
        return sum(b.count(b"\n") + b.count(b"\r") - b.count(b"\r\n")
                   for b in _blocks(stream, offset))


class Lines:
    """The lines of the UTF-8 file at ``path`` from byte ``start``, which
    begins a line, up to byte ``end`` (the end when None), stripped, blank
    ones skipped. Lines end at ``\\r\\n``, ``\\r`` or ``\\n`` and nowhere
    else (``str.splitlines`` also ends one at U+2028, a form feed and the
    like). The bytes are read a block of whole lines at a time, each hashed
    into ``digest`` if one is given. A line that is not UTF-8 is a
    SchemaError naming it, raised after the lines before it, so the first
    bad line in the file wins. ``number`` counts the lines before ``start``
    only when first asked for. The file is opened here, so the caller names
    an OSError, and closed once read."""

    def __init__(self, path, start: int = 0, end: int | None = None, digest=None):
        self.path = path
        self.start = start
        self.size = None if end is None else end - start
        self.digest = digest
        self.stream = open(path, "rb")
        if start:  # a pipe can only be read from its start
            self.stream.seek(start)
        self.first: int | None = None if start else 1  # the range's first line's number
        self.read = 0  # the range's lines before the block being read
        self.line = 0  # the range's line last handed out, from 0

    @property
    def number(self) -> int:
        """The line in the file of the line last handed out."""
        if self.first is None:
            self.first = 1 + _line_ends_before(self.path, self.start)
        return self.first + self.line

    def __iter__(self):
        with self.stream:
            for block in _blocks(self.stream, self.size):
                if self.digest is not None:
                    self.digest.update(block)
                text, error = self._decode(block)
                lines = text.split("\n")
                for i, line in enumerate(lines, self.read):
                    line = line.strip()
                    if line:
                        self.line = i
                        yield line
                # the last item is the rest after the block's last line end
                self.read += len(lines) - 1
                if error is not None:
                    raise error

    def numbered(self):
        """``(number, line)`` for each line."""
        return ((self.number, line) for line in self)

    def text(self) -> str:
        """The file from ``start`` on as one string, with every line end
        made ``\\n``."""
        with self.stream:
            text, error = self._decode(self.stream.read())
        if error is not None:
            raise error
        return text

    def _decode(self, data: bytes) -> tuple[str, SchemaError | None]:
        """``data``, whole lines after the range's first ``read``, decoded
        with every line end made ``\\n``, and the error naming its first line
        that is not UTF-8, or None; then the text ends before that line, as
        no byte of a multi-byte character is ``\\r`` or ``\\n``."""
        try:
            text, error = data.decode("utf-8"), None
        except UnicodeDecodeError as exc:
            line_start = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
            text, error = data[:line_start].decode("utf-8"), exc
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if error is not None:
            self.line = self.read + text.count("\n")
            error = not_utf8(self.path, self.number, data, error)
        return text, error


def content_lines(path):
    """Each ``(line_number, line)`` of the lines of ``path`` that is not
    blank once a ``#`` comment is cut off."""
    for line_number, line in Lines(path).numbered():
        line = line.split("#", 1)[0].rstrip()
        if line:
            yield line_number, line


def bundled(name: str):
    """The path of the data file ``name`` that ships with the package."""
    return resources.files("genscope.data") / name
