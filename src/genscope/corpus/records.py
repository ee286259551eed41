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


def parse_json_line(line: str):
    """``json.loads``, whose ValueError reads as a rejection reason:
    ``invalid JSON: <what>``, or one reason for every integer past
    Python's limit on the digits of an int, whatever its length."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except ValueError:
        raise ValueError("integer of over 4300 digits") from None


def _parse_record(obj: dict) -> Tweet:
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")

    tweet_id = obj.get("id")
    if not isinstance(tweet_id, str) or not tweet_id:
        raise ValueError("missing or empty id")

    text = obj.get("text")
    if not isinstance(text, str) or not text.strip():
        raise ValueError("missing or empty text")

    counts = {}
    for key in ("like_count", "retweet_count"):
        value = obj.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"missing or non-integer {key}")
        if value < 0:
            raise ValueError("negative count")
        if value > MAX_EXACT_COUNT:
            raise ValueError("count above 2**53")
        counts[key] = value

    lang = obj.get("lang")
    if not isinstance(lang, str) or not lang:
        raise ValueError("missing or empty lang")

    sensitive = obj.get("possibly_sensitive", False)
    if not isinstance(sensitive, bool):
        raise ValueError("possibly_sensitive must be boolean")

    created_at = obj.get("created_at")
    if created_at is not None and not isinstance(created_at, str):
        raise ValueError("created_at must be a string")

    return Tweet(
        id=tweet_id, text=text, **counts, lang=lang,
        possibly_sensitive=sensitive, created_at=created_at,
    )


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

    report = IngestReport()
    seen_ids: set[str] = set()
    warned_directives: set[str] = set()
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
                report.rejected[str(exc)] += 1
                continue

            if tweet.id in seen_ids:
                report.rejected["duplicate id"] += 1
                continue

            if query is not None:
                verdict = _apply_directives(obj, query, warned_directives)
                if verdict is not None:
                    report.rejected[verdict] += 1
                    continue

            seen_ids.add(tweet.id)
            report.accepted_count += 1
            on_tweet(tweet)
    report.sha256 = hashing.hash.hexdigest()
    return report


def _apply_directives(obj: dict, query: QueryAst, warned: set[str]) -> str | None:
    """Returns a rejection reason when a directive filters this record."""
    for op in query.operators:
        key = _DIRECTIVE_KEYS[op.name]
        if key not in obj:
            if op.name not in warned:
                warned.add(op.name)
                logger.warning(
                    "directive %s skipped: records lack the %r field",
                    op.render(), key,
                )
            continue
        if bool(obj[key]) == op.negated:
            return f"filtered by {op.render()}"
    return None


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
