"""Tweet records and JSON Lines ingestion.

``ingest`` and ``read_part`` hand the records they pass on in blocks of
up to ``BLOCK``, in file order: the one batch of every corpus command.
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
from array import array
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import accumulate, islice
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

# Records per block handed on, the one batch of analyze's single pass and
# of classify's scoring calls. One tight loop of a stage over a block costs
# less than switching stages at every tweet, as in MonetDB/X100's vectorized
# execution (Boncz, Zukowski and Nes, CIDR 2005). On one byte range of a
# 20k-tweet benchmark corpus, in one process on a shared 2-vCPU Xeon host
# (fastest of 15 runs per size), annotator mode took 383-394 ms at every
# size from 32 to 4,096, 450-510 ms at 8 and 635-680 ms at 1, against about
# 500 ms with no blocks; model mode took 297-302 ms from 32 to 4,096,
# against 305-330 ms with no blocks.
BLOCK = 256


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


class _RangeReader(io.RawIOBase):
    """A raw binary reader over the next ``limit`` bytes of ``raw`` (all
    of them when None) that hashes every byte it hands out into ``digest``
    when one is given, so a text stream over it hashes the bytes in the
    one read that parses them. Closing it leaves ``raw`` open."""

    def __init__(self, raw, limit: int | None = None, digest=None):
        self.raw = raw
        self.limit = limit
        self.digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if self.limit is not None:
            buffer = memoryview(buffer)[: self.limit]
        n = self.raw.readinto(buffer)
        if n:
            if self.limit is not None:
                self.limit -= n
            if self.digest is not None:
                self.digest.update(memoryview(buffer)[:n])
        return n


def _lines(raw, limit: int | None = None, digest=None):
    """A text stream over the next ``limit`` bytes of ``raw``, with the
    same universal-newline split and strict UTF-8 as ``open(path)``."""
    return io.TextIOWrapper(io.BufferedReader(_RangeReader(raw, limit, digest)), encoding="utf-8")


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


def _judged_records(stream, rejected: Counter, directives):
    """``(tweet, verdict, lacked)`` for each schema-valid line of
    ``stream``: the index of the first of ``directives`` (``_Admission``'s)
    that rejects it, or -1, and the mask of the fields it lacks among the
    directives it reaches. Every other line but a blank one is counted in
    ``rejected`` by reason."""
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
        verdict, lacked = -1, 0
        for i, key, negated, bit in directives:
            if key in obj:
                if bool(obj[key]) == negated:
                    verdict = i
                    break
            else:
                lacked |= bit
        yield tweet, verdict, lacked


def _open_corpus(path):
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        raise SchemaError(f"cannot read corpus: {exc}") from exc


@dataclass
class PartRecords:
    """The schema-valid records of a later byte range of a corpus, as
    ``read_part`` found them, in file order, for ``ingest`` to judge:
    each one's id, the index of the first query directive that rejects
    it (-1 for none) and a bit mask of the directive fields it lacks.
    ``ingest`` sets ``kept``: for each record ``read_part`` handed on, in
    order, 1 if it was accepted."""

    rejected: Counter = field(default_factory=Counter)  # the schema rejections
    ids: str = ""  # every id, back to back
    id_ends: array = field(default_factory=lambda: array("q"))
    verdicts: array = field(default_factory=lambda: array("b"))
    lacked: array = field(default_factory=lambda: array("B"))
    kept: bytearray = field(default_factory=bytearray)


class _Admission:
    """What ``ingest`` does with each schema-valid record, in file order:
    the id check, then the query's directives, made once. A directive's
    field is warned about the first time a record that reaches the
    directive lacks it."""

    def __init__(self, query: QueryAst | None):
        operators = query.operators if query is not None else ()
        self.unwarned: dict[str, str] = {}
        for op in operators:
            self.unwarned.setdefault(_DIRECTIVE_KEYS[op.name], op.render())
        # a lacked mask has one bit per directive field, in query order
        self.bits = {key: 1 << i for i, key in enumerate(self.unwarned)}
        # A repeated directive comes to the same verdict as its first copy,
        # so each is kept once, at most ten: (index, field, negated, bit).
        unique = list(dict.fromkeys(operators))
        self.directives = [
            (i, _DIRECTIVE_KEYS[op.name], op.negated, self.bits[_DIRECTIVE_KEYS[op.name]])
            for i, op in enumerate(unique)
        ]
        self.reasons = [f"filtered by {op.render()}" for op in unique]
        self.report = IngestReport()
        self.seen_ids: set[str] = set()

    def admit(self, tweet_id: str, verdict: int, lacked: int) -> bool:
        """Whether the record is accepted; counts it either way."""
        if tweet_id in self.seen_ids:
            self.report.rejected["duplicate id"] += 1
            return False
        if lacked:
            for key, bit in self.bits.items():
                if lacked & bit and key in self.unwarned:
                    logger.warning(
                        "directive %s skipped: records lack the %r field",
                        self.unwarned.pop(key), key,
                    )
        if verdict >= 0:
            self.report.rejected[self.reasons[verdict]] += 1
            return False
        self.seen_ids.add(tweet_id)
        self.report.accepted_count += 1
        return True

    def replay(self, part: PartRecords) -> None:
        """Judge a later range's records as if they had been read here."""
        self.report.rejected.update(part.rejected)
        ids, start = part.ids, 0
        for end, verdict, lacked in zip(part.id_ends, part.verdicts, part.lacked):
            accepted = self.admit(ids[start:end], verdict, lacked)
            if verdict < 0:  # handed on
                part.kept.append(accepted)
            start = end


def ingest(path, on_block, query: QueryAst | None = None, end: int | None = None,
           later=()) -> IngestReport:
    """Read and validate the JSON Lines corpus at ``path``, handing the
    accepted tweets to ``on_block`` as they are read, in lists of up to
    ``BLOCK``, in file order.

    The report carries the sha256 of the file's bytes. Per-line schema
    violations and duplicate ids are counted by reason in the report,
    never fatal; only an unreadable file raises.

    A corpus cut into byte ranges is read up to ``end`` here; ``later``
    yields the ``PartRecords`` that ``read_part`` made of the ranges from
    ``end`` on, in order. This range's last block is handed on before
    ``later`` is asked for the first part, so its errors come first. The
    later parts are judged after it, so ids, warnings and counts come out
    as from one read of the whole file, and each part's ``kept`` is set
    before the next is asked for.
    """
    admission = _Admission(query)
    digest = hashlib.sha256()
    with _open_corpus(path) as raw:
        with naming_decode_errors(path), _lines(raw, end, digest) as stream:
            admit = admission.admit
            records = _judged_records(stream, admission.report.rejected, admission.directives)
            accepted = (tweet for tweet, verdict, lacked in records
                        if admit(tweet.id, verdict, lacked))
            while block := list(islice(accepted, BLOCK)):
                on_block(block)
        while chunk := raw.read(1 << 20):  # the bytes of the later ranges
            digest.update(chunk)
    for part in later:
        admission.replay(part)
    admission.report.sha256 = digest.hexdigest()
    return admission.report


def read_part(path, start: int, end: int | None, on_block, query: QueryAst | None) -> PartRecords:
    """Read bytes ``start`` to ``end`` (the end of the file when None) of
    the corpus at ``path``, which begin a line, for ``ingest``'s ``later``.
    The schema-valid records that no directive rejects go to ``on_block``
    in blocks, as ``ingest`` hands its own on; whether an id repeats an
    earlier one is left to ``ingest``, which sees every range."""
    directives = _Admission(query).directives
    part = PartRecords()
    ids = []

    def handed(stream):
        for tweet, verdict, lacked in _judged_records(stream, part.rejected, directives):
            ids.append(tweet.id)
            part.verdicts.append(verdict)
            part.lacked.append(lacked)
            if verdict < 0:
                yield tweet

    with _open_corpus(path) as raw:
        raw.seek(start)
        with naming_decode_errors(path), _lines(raw, None if end is None else end - start) as stream:
            tweets = handed(stream)
            while block := list(islice(tweets, BLOCK)):
                on_block(block)
    part.ids = "".join(ids)
    part.id_ends = array("q", accumulate(map(len, ids)))
    return part


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
    """Yield a function that writes dicts to ``path``, each as a JSON
    line with a stable key order. The lines go to ``<name>.partial``, which
    replaces ``path`` at the end of the block; on an error it is removed,
    with the directories made for it, so ``path`` stays as it was."""
    path = Path(path)
    made = [d for d in reversed(path.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as stream:
            yield lambda records: stream.writelines(_ENCODER.encode(r) + "\n" for r in records)
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        for directory in reversed(made):
            with suppress(OSError):  # not empty: something else wrote there
                directory.rmdir()
        raise
