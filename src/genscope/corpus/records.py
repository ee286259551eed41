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
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SchemaError
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
    tweets: list[Tweet] = field(default_factory=list)  # empty when streamed to on_tweet
    rejected: Counter = field(default_factory=Counter)  # reason -> lines
    accepted_count: int = 0
    sha256: str | None = None  # of the raw bytes, when ingest read a path

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
        id=tweet_id,
        text=text,
        like_count=counts["like_count"],
        retweet_count=counts["retweet_count"],
        lang=lang,
        possibly_sensitive=sensitive,
        created_at=created_at,
    )


def ingest(source, query: QueryAst | None = None, on_tweet=None) -> IngestReport:
    """Read and validate a JSON Lines corpus.

    ``source`` may be a path or a text stream; from a path, the report
    carries the sha256 of the file's bytes. Each accepted tweet goes to
    ``on_tweet`` when one is given and into ``report.tweets`` otherwise.
    Per-line schema violations and duplicate ids are counted by reason in
    the report, never fatal; only an unreadable source raises.
    """
    hashing = None
    if isinstance(source, (str, Path)):
        try:
            hashing = _HashingReader(open(source, "rb", buffering=0))
        except OSError as exc:
            raise SchemaError(f"cannot read corpus: {exc}") from exc
        # the same universal-newline split and strict UTF-8 as open(source)
        stream = io.TextIOWrapper(io.BufferedReader(hashing), encoding="utf-8")
    else:
        stream = source

    report = IngestReport()
    keep = report.tweets.append if on_tweet is None else on_tweet
    seen_ids: set[str] = set()
    warned_directives: set[str] = set()
    try:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                report.rejected[f"invalid JSON: {exc.msg}"] += 1
                continue
            try:
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
            keep(tweet)
    finally:
        if hashing is not None:
            stream.close()
    if hashing is not None:
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
        value = bool(obj[key])
        if op.negated and value:
            return f"filtered by {op.render()}"
        if not op.negated and not value:
            return f"filtered by {op.render()}"
    return None


def read_jsonl(source):
    """Yield (line_number, object) pairs from a JSON Lines file or stream.

    A line that is not valid JSON raises SchemaError naming the file and
    line.
    """
    if isinstance(source, (str, Path)):
        stream = open(source, encoding="utf-8")
        close = True
    else:
        stream, close = source, False
    try:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                name = getattr(stream, "name", "<stream>")
                raise SchemaError(f"{name}:{line_number}: invalid JSON: {exc.msg}") from None
            yield line_number, obj
    finally:
        if close:
            stream.close()


def write_jsonl(records, target) -> None:
    """Write dicts as JSON Lines with a stable key order."""
    if isinstance(target, (str, Path)):
        stream = open(target, "w", encoding="utf-8", newline="\n")
        close = True
    else:
        stream, close = target, False
    try:
        for record in records:
            stream.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    finally:
        if close:
            stream.close()
