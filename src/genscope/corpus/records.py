"""Tweet records and JSON Lines ingestion.

The corpus format is JSON Lines, one object per tweet with keys ``id``,
``text``, ``like_count``, ``retweet_count``, ``lang`` plus optional
``possibly_sensitive`` and ``created_at``. Unknown keys are ignored.
Directive filters from a query (e.g. ``-is:retweet``) are applied at
ingest time when a record carries the matching optional boolean key
(``is_retweet`` etc.); records without that metadata pass through with a
one-time warning.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import re
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SchemaError, naming_decode_errors
from .query import QueryAst

logger = logging.getLogger(__name__)

# optional per-record metadata keys that mirror the query directives
_DIRECTIVE_KEYS = {
    "has:links": "has_links",
    "has:mentions": "has_mentions",
    "is:retweet": "is_retweet",
    "is:reply": "is_reply",
    "is:nullcast": "is_nullcast",
}

# json.dumps with these options, without building an encoder per line
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)

# the rank tests read counts as floats, which hold every integer up to this
MAX_EXACT_COUNT = 2**53


@dataclass
class Tweet:
    id: str
    text: str
    like_count: int
    retweet_count: int
    lang: str
    possibly_sensitive: bool = False
    created_at: str | None = None


@dataclass
class IngestReport:
    rejected: Counter = field(default_factory=Counter)  # reason -> lines
    accepted_count: int = 0
    sha256: str = ""  # of the file's raw bytes

    @property
    def rejected_count(self) -> int:
        return self.rejected.total()


class _HashingReader(io.RawIOBase):
    """A raw binary reader that hashes every byte it hands out, so a text
    stream over it hashes the file in the one read that parses it."""

    def __init__(self, raw):
        self.raw = raw
        self.hash = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(buffer)
        if n:
            self.hash.update(memoryview(buffer)[:n])
        return n

    def close(self) -> None:
        self.raw.close()
        super().close()


# one decoder for every line, called without json.loads' two wrappers
_DECODER = json.JSONDecoder()

# The decoder recurses once per level of nesting, so a line nested deep
# enough ends in a RecursionError, at a depth that depends on the caller's
# stack. A line nested deeper than this is rejected before it is decoded.
MAX_DEPTH = 100
# a JSON string (an unterminated one runs to the line's end) or a bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]+|\\.)*"?|[][{}]')
_NESTING = {"[": 1, "{": 1, "]": -1, "}": -1}


def _too_deep(line: str) -> bool:
    """Whether ``line`` opens more than MAX_DEPTH brackets, outside strings,
    before it closes them."""
    depth = 0
    for token in _STRING_OR_BRACKET.findall(line):
        depth += _NESTING.get(token, 0)
        if depth > MAX_DEPTH:
            return True
    return False


def parse_json_line(line: str):
    """``json.loads`` of a line already stripped of whitespace, whose
    ValueError reads as a rejection reason: ``invalid JSON: <what>``, or
    one reason for every integer past Python's limit on the digits of an
    int, whatever its length, and one for every line nested deeper than
    MAX_DEPTH, however deep and whatever the caller's stack.

    One ``raw_decode`` call does the work; the two errors ``json.loads``
    adds around it, a leading byte order mark and data after the value,
    are raised here with its messages."""
    if line.startswith("\ufeff"):
        raise ValueError("invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    # Only a line with more openers than the cap is scanned. A flat object,
    # with no "[" and no "{" after its first character, is known to be
    # shallow from two finds, each far cheaper than a count.
    if (
        ("[" in line or line.find("{", 1) != -1)
        and line.count("[") + line.count("{") > MAX_DEPTH
        and _too_deep(line)
    ):
        raise ValueError(f"nested deeper than {MAX_DEPTH} levels")
    try:
        obj, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except ValueError:
        raise ValueError("integer of over 4300 digits") from None
    if end != len(line):
        raise ValueError("invalid JSON: Extra data")
    return obj


def _parse_record(obj) -> Tweet:
    # the decoder makes no subclass of str, int or dict, so exact type
    # tests are isinstance tests that also tell a bool from an int
    if type(obj) is not dict:
        raise ValueError("record must be a JSON object")

    tweet_id = obj.get("id")
    if type(tweet_id) is not str or not tweet_id:
        raise ValueError("missing or empty id")

    text = obj.get("text")
    if type(text) is not str or not text or text.isspace():
        raise ValueError("missing or empty text")

    likes = obj.get("like_count")
    _check_count(likes, "like_count")
    retweets = obj.get("retweet_count")
    _check_count(retweets, "retweet_count")

    lang = obj.get("lang")
    if type(lang) is not str or not lang:
        raise ValueError("missing or empty lang")

    sensitive = obj.get("possibly_sensitive", False)
    if type(sensitive) is not bool:
        raise ValueError("possibly_sensitive must be boolean")

    created_at = obj.get("created_at")
    if created_at is not None and type(created_at) is not str:
        raise ValueError("created_at must be a string")

    return Tweet(tweet_id, text, likes, retweets, lang, sensitive, created_at)


def _check_count(value, key: str) -> None:
    if type(value) is not int:
        raise ValueError(f"missing or non-integer {key}")
    if value < 0:
        raise ValueError("negative count")
    if value > MAX_EXACT_COUNT:
        raise ValueError("count above 2**53")


def ingest(path, on_tweet, query: QueryAst | None = None) -> IngestReport:
    """Read and validate the JSON Lines corpus at ``path``, handing each
    accepted tweet to ``on_tweet`` as it is read.

    The report carries the sha256 of the file's bytes. Per-line schema
    violations and duplicate ids are counted by reason in the report,
    never fatal; only an unreadable file raises.
    """
    try:
        hashing = _HashingReader(open(path, "rb", buffering=0))
    except OSError as exc:
        raise SchemaError(f"cannot read corpus: {exc}") from exc

    # each directive as (field, negated, rejection reason), made once; a
    # field's warning is logged the first time a record reaching it lacks it
    directives = []
    unwarned: dict[str, str] = {}
    for op in query.operators if query is not None else ():
        key = _DIRECTIVE_KEYS[op.name]
        directives.append((key, op.negated, f"filtered by {op.render()}"))
        unwarned.setdefault(key, op.render())

    report = IngestReport()
    rejected = report.rejected
    accepted = 0
    seen_ids: set[str] = set()
    # the same universal-newline split and strict UTF-8 as open(path)
    with naming_decode_errors(path), io.TextIOWrapper(
        io.BufferedReader(hashing), encoding="utf-8"
    ) as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                obj = parse_json_line(line)
                tweet = _parse_record(obj)
            except ValueError as exc:
                rejected[str(exc)] += 1
                continue

            if tweet.id in seen_ids:
                rejected["duplicate id"] += 1
                continue

            verdict = None
            for key, negated, reason in directives:
                if key in obj:
                    if bool(obj[key]) == negated:
                        verdict = reason
                        break
                elif key in unwarned:
                    logger.warning(
                        "directive %s skipped: records lack the %r field",
                        unwarned.pop(key), key,
                    )
            if verdict is not None:
                rejected[verdict] += 1
                continue

            seen_ids.add(tweet.id)
            accepted += 1
            on_tweet(tweet)
    report.accepted_count = accepted
    report.sha256 = hashing.hash.hexdigest()
    return report


def read_jsonl(path):
    """Yield (line_number, object) pairs from a JSON Lines file.

    A line that is not valid JSON raises SchemaError naming the file and
    line.
    """
    with naming_decode_errors(path), open(path, encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = parse_json_line(line)
            except ValueError as exc:
                raise SchemaError(f"{path}:{line_number}: {exc}") from None
            yield line_number, obj


@contextmanager
def jsonl_writer(path):
    """Yield a function that writes one dict to ``path`` as a JSON line
    with a stable key order. The lines go to ``<name>.partial``, which
    replaces ``path`` at the end of the block; on an error it is removed,
    with the directories made for it, so ``path`` stays as it was."""
    path = Path(path)
    made = [d for d in reversed(path.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as stream:
            yield lambda record: stream.write(_ENCODER.encode(record) + "\n")
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # not empty: something else wrote there
                directory.rmdir()
        raise


def write_jsonl(records, path) -> None:
    """Write dicts to ``path`` as JSON Lines with a stable key order."""
    with jsonl_writer(path) as write:
        for record in records:
            write(record)
