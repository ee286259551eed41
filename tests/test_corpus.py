import contextlib
import hashlib
import json
import logging
import os
import random
import re
import sys
from collections import Counter
from importlib import resources
from itertools import accumulate, compress

import pytest
from hypothesis import given, settings, strategies as st

import genscope.corpus.records
import genscope.errors
from genscope.analysis import AnalysisConfig, run_analysis
from genscope.classifier import tokenize
from genscope.corpus import (
    BUCKETS,
    GroupLexicon,
    Tweet,
    compile_terms,
    ingest,
    load_group_lexicon,
    match_groups,
    parse_query,
    partition,
)
from genscope.corpus.records import MAX_DEPTH, parse_json_line, read_jsonl, read_part
from genscope.errors import SchemaError
from genscope.labeling import _existing_ids
from genscope.sentiment import load_external_labels

from corpora import write_jsonl
from test_exit_codes import NOT_LINE_ENDS


def _ingest(tmp_path, lines, query=None):
    """``ingest`` a corpus of ``lines`` (objects or raw strings); returns
    the report and the accepted tweets."""
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join((line if isinstance(line, str) else json.dumps(line)) + "\n" for line in lines),
        encoding="utf-8",
    )
    tweets = []
    return ingest(path, tweets.extend, query), tweets


def _record(i, text="hello democrats", **kw):
    base = {
        "id": str(i),
        "text": text,
        "like_count": 1,
        "retweet_count": 0,
        "lang": "en",
    }
    base.update(kw)
    return base


def _any_record(i) -> bytes:
    """A JSON line that every JSON Lines reader takes: a tweet, an external
    label and a JSON value."""
    return json.dumps({**_record(i), "sentiment": "positive"}).encode()


def _ingested(path) -> tuple:
    """The reasons ``ingest`` rejected lines for, and the ids it accepted."""
    tweets = []
    return ingest(path, tweets.extend).rejected, [tweet.id for tweet in tweets]


def _partition_counts(tmp_path, records, query):
    """The report's partition block for ``records`` under ``query`` and LEX."""
    corpus, query_file, lexicon = (tmp_path / n for n in ("c.jsonl", "q.txt", "lex.tsv"))
    write_jsonl(records, corpus)
    query_file.write_text(query, encoding="utf-8")
    lexicon.write_text(
        "".join(f"{term}\t{','.join(groups)}\n" for term, groups in LEX.entries.items()),
        encoding="utf-8",
    )
    config = AnalysisConfig(corpus=str(corpus), query=str(query_file), group_lexicon=str(lexicon))
    return run_analysis(config)["partition"]


LEX = GroupLexicon(
    entries={
        "democrats": frozenset({"political"}),
        "liberals": frozenset({"political"}),
        "trans": frozenset({"gender"}),
        "black people": frozenset({"ethnic"}),
        "white men": frozenset({"ethnic"}),
    }
)
AST = parse_query("(democrats OR liberals OR trans OR (black people) OR (white men))")
TERMS = compile_terms(AST, LEX)


class TestIngest:
    def test_three_valid_lines(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1), _record(2), _record(3)])
        assert report.accepted_count == 3
        assert report.rejected_count == 0

    def test_duplicate_id(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1), _record(1)])
        assert report.accepted_count == 1
        assert list(report.rejected)[0] == "duplicate id"

    def test_negative_count(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1, like_count=-1)])
        assert report.accepted_count == 0
        assert list(report.rejected)[0] == "negative count"

    @pytest.mark.parametrize(
        "count, accepted",
        [(2**53, True), (2**53 + 1, False), (10**400, False)],
        ids=["2**53", "2**53+1", "10**400"],
    )
    @pytest.mark.parametrize("key", ["like_count", "retweet_count"])
    def test_count_a_float_cannot_hold_exactly(self, tmp_path, key, count, accepted):
        report, tweets = _ingest(tmp_path, [_record(1, **{key: count})])
        assert report.accepted_count == accepted
        assert report.rejected == ({} if accepted else {"count above 2**53": 1})
        assert [getattr(t, key) for t in tweets] == ([count] if accepted else [])

    def test_integers_past_the_digit_limit_share_one_reason(self, tmp_path):
        # Python's own message names each digit count; the report must not
        lines = [
            json.dumps(_record(i)).replace('"like_count": 1', f'"like_count": {"9" * digits}')
            for i, digits in ((1, 4301), (2, 5001))
        ]
        report, _ = _ingest(tmp_path, [*lines, _record(3)])
        assert report.accepted_count == 1
        assert report.rejected == {"integer of over 4300 digits": 2}

    def test_schema_violations_not_fatal(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1), {"id": "x"}, _record(2, text="   ")])
        assert report.accepted_count == 1
        assert report.rejected_count == 2

    def test_invalid_json_line(self, tmp_path):
        report, _ = _ingest(tmp_path, ['{"id": "1"', "not json"])
        assert report.accepted_count == 0
        assert all("invalid JSON" in r for r in report.rejected)

    def test_unknown_keys_ignored(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1, extra_field="zzz")])
        assert report.accepted_count == 1

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(SchemaError):
            ingest(tmp_path / "missing.jsonl", lambda tweets: None)

    def test_directive_filters_when_metadata_present(self, tmp_path):
        ast = parse_query("(democrats) -is:retweet")
        report, tweets = _ingest(
            tmp_path,
            [_record(1, is_retweet=True), _record(2, is_retweet=False), _record(3)],
            query=ast,
        )
        assert [t.id for t in tweets] == ["2", "3"]
        assert list(report.rejected)[0] == "filtered by -is:retweet"

    def test_missing_directive_field_warns_once_from_the_first_record_reaching_it(
        self, tmp_path, caplog, monkeypatch
    ):
        # a record rejected by an earlier directive never reaches a later
        # one, so it does not warn about that one's field; two directives
        # on one field warn once, as the first of them
        ast = parse_query("(democrats) -is:retweet -has:links -is:reply is:reply")
        events = []
        caplog.set_level(logging.WARNING, logger="genscope.corpus.records")
        path = tmp_path / "corpus.jsonl"
        write_jsonl([
            _record(1, is_retweet=True),
            _record(2, is_retweet=False, has_links=True),
            _record(3, is_retweet=False),
            _record(4),
        ], path)

        def on_block(tweets):
            events.extend(r.getMessage() for r in caplog.records)
            caplog.clear()
            events.extend(tweet.id for tweet in tweets)

        # one tweet a block, so each is handed on before the next is read
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", 1)
        report = ingest(path, on_block, ast)
        lacks = "directive {} skipped: records lack the '{}' field".format
        assert events == [
            lacks("-has:links", "has_links"), lacks("-is:reply", "is_reply"), "3",
            lacks("-is:retweet", "is_retweet"), "4",
        ]
        assert report.rejected == {"filtered by -is:retweet": 1, "filtered by -has:links": 1}

    def test_bool_not_accepted_as_count(self, tmp_path):
        report, _ = _ingest(tmp_path, [_record(1, like_count=True)])
        assert report.accepted_count == 0


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "bare-cr"])
def test_path_splits_lines_as_text_mode_does(tmp_path, newline):
    # U+2028 is a line break to str.splitlines but not to a text stream
    lines = [
        json.dumps(_record(1)), "not json", json.dumps(_record(1)),
        json.dumps(_record(2, text="democrats\u2028are loud"), ensure_ascii=False), "",
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(newline.join(lines).encode("utf-8"))
    tweets = []
    report = ingest(path, tweets.extend)
    assert (report.accepted_count, report.rejected) == (2, {
        "invalid JSON: Expecting value": 1, "duplicate id": 1,
    })
    with open(path, encoding="utf-8") as stream:
        text_mode = [line.strip() for line in stream if line.strip()]
    assert report.accepted_count + report.rejected_count == len(text_mode) == 4
    assert [vars(t) for t in tweets] == [
        vars(Tweet(**_record(1))), vars(Tweet(**_record(2, text="democrats\u2028are loud"))),
    ]
    assert report.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


def test_on_block_takes_the_accepted_tweets(tmp_path):
    report, seen = _ingest(tmp_path, [_record(1), _record(1), _record(2)])
    assert [t.id for t in seen] == ["1", "2"]
    assert (report.accepted_count, report.rejected_count) == (2, 1)


class TestBlocks:
    """``ingest`` and ``read_part`` hand records on in blocks of up to
    ``BLOCK``, in file order, and make no call without a record."""

    QUERY = parse_query("(democrats) -is:retweet")

    @staticmethod
    def _corpus(path):
        """700 records and, between them, a retweet the query rejects after
        every 7th, a repeat of an accepted id after every 11th and a line
        that is not JSON after every 13th. Returns the byte offset of each
        line and, for each line, the id ``ingest`` accepts from it and the
        id ``read_part`` hands on from it (None for none)."""
        rows = []
        for i in range(700):
            rows.append((json.dumps(_record(f"t{i}")), f"t{i}", f"t{i}"))
            if i % 7 == 6:
                rows.append((json.dumps(_record(f"r{i}", is_retweet=True)), None, None))
            if i % 11 == 10:
                rows.append((json.dumps(_record(f"t{i - 5}", is_retweet=False)), None, f"t{i - 5}"))
            if i % 13 == 12:
                rows.append(("not json", None, None))
        lines, accepted, passing = zip(*rows)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return [0, *accumulate(len(line) + 1 for line in lines)], accepted, passing

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_blocks_join_up_to_the_records_handed_on(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
        path = tmp_path / "corpus.jsonl"
        starts, accepted, passing = self._corpus(path)
        blocks = []
        report = ingest(path, blocks.append, self.QUERY)
        assert all(1 <= len(b) <= block for b in blocks)
        assert [t.id for b in blocks for t in b] == [i for i in accepted if i]
        assert report.accepted_count == 700
        # read_part leaves the id check to ingest, so a repeat is handed on
        mid = len(passing) // 2
        for start, end, want in ((0, None, passing), (0, starts[mid], passing[:mid]),
                                 (starts[mid], None, passing[mid:])):
            blocks.clear()
            read_part(path, start, end, blocks.append, self.QUERY)
            assert all(1 <= len(b) <= block for b in blocks)
            assert [t.id for b in blocks for t in b] == [i for i in want if i]

    @pytest.mark.parametrize("block", [1, 3, 256])
    def test_a_range_hands_on_its_last_block_before_the_later_ranges(
        self, tmp_path, monkeypatch, block
    ):
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
        path = tmp_path / "corpus.jsonl"
        starts, accepted, passing = self._corpus(path)
        # the later range starts with a repeat of an id accepted before it
        half = next(k for k in range(len(accepted) // 2, len(accepted))
                    if passing[k] and not accepted[k])
        events = []

        def later():
            events.append("later")
            blocks = []
            part = read_part(path, starts[half], None, blocks.append, self.QUERY)
            yield part
            # ingest judged the part before it asked for the next
            events.extend(compress([t.id for b in blocks for t in b], part.kept))

        ingest(path, lambda tweets: events.extend(t.id for t in tweets), self.QUERY,
               starts[half], later())
        assert events == [
            *(i for i in accepted[:half] if i), "later", *(i for i in accepted[half:] if i),
        ]

    @pytest.mark.parametrize("block", [1, 3, 256])
    @pytest.mark.parametrize("lines", [[], ["not json", json.dumps(_record(1, is_retweet=True))]],
                             ids=["empty", "all-rejected"])
    def test_no_record_no_call(self, tmp_path, monkeypatch, block, lines):
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        def no_call(tweets):
            raise AssertionError(f"handed {tweets}")

        assert ingest(path, no_call, self.QUERY).accepted_count == 0
        read_part(path, 0, None, no_call, self.QUERY)


def _as_json_loads(line):
    """What ``parse_json_line`` must give for ``line``: ``json.loads``'
    object, or its error as a rejection reason (both through ``repr``, so
    NaN, -0.0, int vs float and key order all count)."""
    try:
        return repr(json.loads(line))
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except ValueError:
        return "integer of over 4300 digits"


def _parsed(line):
    try:
        return repr(parse_json_line(line))
    except ValueError as exc:
        return str(exc)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# the characters JSON is made of, plus a BOM, a control character, letters
# and non-JSON whitespace
_JSONISH_CHARS = '{}[]",:0123456789-+.eE tfnrualsNIiy\\\ufeff\x01\x0b\u2028\u00e9x'


class TestParseJsonLine:
    """One ``raw_decode`` call gives what ``json.loads`` gives on a stripped
    line: the same object, or the same rejection reason."""

    @pytest.mark.parametrize("line", [
        "", "x", "{}{}", "1 2", "[1,]", '{"a" 1}', "\ufeff{}", "\ufeff", '"a\x01b"',
        "NaN", "[NaN, -Infinity, 1e400, -0.0]", "nul", "9" * 4301, "-" + "9" * 4301,
        '{"a": 1} x', '{"a": 1}\u2028', '{"a": 1, "a": 2}', '"\\ud800"', "[]]",
    ])
    def test_edge_lines(self, line):
        assert _parsed(line) == _as_json_loads(line)

    @settings(derandomize=True, database=None, deadline=None, max_examples=600)
    @given(st.one_of(
        st.text(alphabet=_JSONISH_CHARS, max_size=24),
        _JSON_VALUES.map(json.dumps),
        _JSON_VALUES.map(lambda value: "\ufeff" + json.dumps(value)),
        # a valid document with a few characters spliced in
        st.tuples(
            _JSON_VALUES.map(json.dumps), st.integers(0, 40),
            st.text(alphabet=_JSONISH_CHARS, min_size=1, max_size=3),
        ).map(lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:]),
    ))
    def test_matches_json_loads(self, text):
        line = text.strip()  # every caller strips the line first
        assert _parsed(line) == _as_json_loads(line)


DEEP = "[" * 100_000 + "]" * 100_000
DEEP_REASON = f"nested deeper than {MAX_DEPTH} levels"


def _at_stack_depth(frames, fn):
    """``fn()`` called ``frames`` frames deeper than here."""
    return fn() if frames <= 0 else _at_stack_depth(frames - 1, fn)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestDeepNesting:
    """A line nested deeper than MAX_DEPTH is one fixed rejection in every
    JSON reader, never a RecursionError, whatever the caller's stack."""

    @pytest.mark.parametrize("line", [
        "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1),
        '{"a":' * (MAX_DEPTH + 1) + "1" + "}" * (MAX_DEPTH + 1),
        "[" * (MAX_DEPTH + 1),  # unclosed
        DEEP,
    ])
    def test_deeper_than_the_cap_is_rejected(self, line):
        assert _parsed(line) == DEEP_REASON

    @pytest.mark.parametrize("line", [
        "[" * MAX_DEPTH + "]" * MAX_DEPTH,
        # brackets inside strings, escaped quotes among them, do not nest
        json.dumps(["[" * 500 + '"{' * 500]),
        '["' + "[" * 500,  # an unterminated string
        "[" * MAX_DEPTH + "]" * MAX_DEPTH + "[" * MAX_DEPTH + "]" * MAX_DEPTH,
    ])
    def test_at_most_the_cap_reads_as_json_loads(self, line):
        assert _parsed(line) == _as_json_loads(line)

    def test_same_verdict_from_a_deep_stack(self):
        # 40 frames short of the recursion limit, a line of any depth past
        # the cap still reads as the cap's reason; a line at the cap needs
        # one frame per level beyond that
        frames = sys.getrecursionlimit() - _stack_depth() - 40
        for line in (DEEP, "[" * (MAX_DEPTH + 1)):
            assert _at_stack_depth(frames, lambda: _parsed(line)) == DEEP_REASON
        line = "[" * MAX_DEPTH + "]" * MAX_DEPTH
        frames -= MAX_DEPTH
        assert _at_stack_depth(frames, lambda: _parsed(line)) == _as_json_loads(line)

    def test_ingest_counts_it(self, tmp_path):
        report, tweets = _ingest(tmp_path, [_record(1), DEEP, _record(2)])
        assert [t.id for t in tweets] == ["1", "2"]
        assert report.rejected == {DEEP_REASON: 1}

    def test_read_jsonl_names_its_line(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text(f"{{}}\n{DEEP}\n", encoding="utf-8")
        with pytest.raises(SchemaError) as raised:
            list(read_jsonl(path))
        assert str(raised.value) == f"{path}:2: {DEEP_REASON}"

    def test_external_labels_reject_it(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text(f'{DEEP}\n{{"id": "1", "sentiment": "positive"}}\n', encoding="utf-8")
        report = load_external_labels(path)
        assert report.rejected == [(1, DEEP_REASON)]
        assert list(report.labels) == ["1"]

    def test_label_resume_skips_it(self, tmp_path):
        path = tmp_path / "labeled.jsonl"
        path.write_text(f'{DEEP}\n{{"id": "t1", "label": 1}}\n', encoding="utf-8")
        assert _existing_ids(path) == ({"t1"}, False)


class TestReadJsonl:
    """``read_jsonl``, and every reader of ``errors.Lines``, reads the
    lines of a byte range that starts a line, numbered from the file's
    first line, a block of bytes at a time; of several bad lines, the first
    in the file is the error, whatever the block size and the range."""

    # with \r\n, \n and \r line ends in turn, and no final one
    LINES = [b'{"a": 1}', b"", b"  ", b'{"b": "\xc3\xa9"}', b"[1, 2]", b'"x\xe2\x80\xa8y"',
             b'\t{"c": null}']
    ENDS = [b"\r\n", b"\n", b"\r"]

    @staticmethod
    def _write(tmp_path, lines) -> tuple:
        data = b"".join(line + TestReadJsonl.ENDS[i % 3] for i, line in enumerate(lines[:-1]))
        data += lines[-1]
        path = tmp_path / "x.jsonl"
        path.write_bytes(data)
        starts = [i + 1 for i, byte in enumerate(data[:-1])
                  if byte == ord("\n") or (byte == ord("\r") and data[i + 1] != ord("\n"))]
        return path, starts

    @pytest.mark.parametrize("block", [1, 5, 1 << 20])
    def test_ranges_join_to_the_whole(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(genscope.errors, "TEXT_BLOCK", block)
        path, starts = self._write(tmp_path, self.LINES)
        whole = list(read_jsonl(path))
        assert whole == [(1, {"a": 1}), (4, {"b": "é"}), (5, [1, 2]), (6, "x\u2028y"),
                         (7, {"c": None})]
        for a in starts:
            assert list(read_jsonl(path, 0, a)) + list(read_jsonl(path, a)) == whole
            for b in (s for s in starts if s > a):
                got = [*read_jsonl(path, 0, a), *read_jsonl(path, a, b), *read_jsonl(path, b)]
                assert got == whole

    BAD = {
        "json": (b"{", "invalid JSON: Expecting property name enclosed in double quotes"),
        "utf8": (b'{"a": "\xff"}', "not UTF-8: invalid start byte (byte 0xff)"),
        "cut": (b'{"a": "\xe2\x82', "not UTF-8: invalid continuation byte (byte 0xe2)"),
    }

    @pytest.mark.parametrize("block", [1, 5, 1 << 20])
    @pytest.mark.parametrize("first, second", [("json", "utf8"), ("utf8", "json"),
                                               ("utf8", "cut"), ("cut", "json")])
    def test_the_first_bad_line_wins(self, tmp_path, monkeypatch, block, first, second):
        monkeypatch.setattr(genscope.errors, "TEXT_BLOCK", block)
        lines = [b'{"a": 1}'] * 6
        lines[1], lines[3] = self.BAD[first][0], self.BAD[second][0]
        path, starts = self._write(tmp_path, lines)
        for start, line_number, kind in ((0, 2, first), (starts[2], 4, second)):
            with pytest.raises(SchemaError) as raised:
                list(read_jsonl(path, start))
            assert str(raised.value) == f"{path}:{line_number}: {self.BAD[kind][1]}"

    def test_a_cut_character_ends_the_file(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n{"a": "\xe2\x82')
        with pytest.raises(SchemaError) as raised:
            list(read_jsonl(path))
        assert str(raised.value) == f"{path}:2: not UTF-8: unexpected end of data (byte 0xe2)"

    # Crafted files and what every reader makes of them: the line and id
    # of each record, the line and reason of each line that is not JSON,
    # and the line and error of the first line that is not UTF-8, if any.
    BOM = "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
    CRAFTED = {
        # each character at which str.splitlines ends a line, leading and
        # ending a line, with \r\n, \n and \r line ends in turn
        "line-ends": (
            [_any_record(1), b"", b" \t", _any_record(2),
             *(c.encode() + _any_record(3 + i) + c.encode() for i, c in enumerate(NOT_LINE_ENDS)),
             b"{", _any_record(11)],
            [(1, "1"), (4, "2"), *((5 + i, str(3 + i)) for i in range(8)), (14, "11")],
            [(13, "invalid JSON: Expecting property name enclosed in double quotes")],
            None,
        ),
        "bom": (
            [b"\xef\xbb\xbf" + _any_record(1), _any_record(2), b"\xef\xbb\xbf" + _any_record(3)],
            [(2, "2")], [(1, BOM), (3, BOM)], None,
        ),
        "cut-at-the-end": (
            [_any_record(1), _any_record(2), b'{"id": "\xe2\x82'],
            [(1, "1"), (2, "2")], [], (3, "not UTF-8: unexpected end of data (byte 0xe2)"),
        ),
        # a bad byte that starts a block of 1 byte and one of 5, and one
        # right after the 5 bytes a block of 5 reads before its line end
        "bad-first-byte": (
            [_any_record(1), b'\xff{"id": "x"}', b"{", _any_record(2)],
            [(1, "1")], [(3, "invalid JSON: Expecting property name enclosed in double quotes")],
            (2, "not UTF-8: invalid start byte (byte 0xff)"),
        ),
        "bad-fifth-byte": (
            [_any_record(1), b"", b'{"id\xff": 1}', _any_record(2)],
            [(1, "1")], [], (3, "not UTF-8: invalid start byte (byte 0xff)"),
        ),
        "cut-before-a-cr": (
            [_any_record(1), b"", b'{"id": "\xe2\x82', _any_record(2)],
            [(1, "1")], [], (3, "not UTF-8: invalid continuation byte (byte 0xe2)"),
        ),
    }

    @pytest.fixture(params=list(CRAFTED))
    def crafted(self, request, tmp_path) -> tuple:
        """The file, its line starts and what every reader makes of it."""
        lines, records, not_json, error = self.CRAFTED[request.param]
        path, starts = self._write(tmp_path, lines)
        return path, starts, records, not_json, error

    @pytest.mark.parametrize("read", [
        lambda path: list(read_jsonl(path)),
        lambda path: _ingested(path),
        lambda path: vars(load_external_labels(path)),
        lambda path: genscope.errors.Lines(path).text(),
    ], ids=["read_jsonl", "ingest", "external-labels", "text"])
    def test_a_pipe_reads_as_its_file(self, tmp_path, read):
        path, _ = self._write(tmp_path, [_any_record(1), b"", _any_record(2), b"[1]"])
        pipe, write = os.pipe()
        with open(write, "wb") as stream:
            stream.write(path.read_bytes())
        try:
            assert read(f"/dev/fd/{pipe}") == read(path)
        finally:
            os.close(pipe)

    @pytest.mark.parametrize("block", [1, 5, 1 << 20])
    def test_every_reader_reads_the_crafted_files(self, monkeypatch, crafted, block):
        monkeypatch.setattr(genscope.errors, "TEXT_BLOCK", block)
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", 1)
        path, starts, records, not_json, error = crafted
        bad = error and f"{path}:{error[0]}: {error[1]}"

        # read_jsonl stops at the first line that is not JSON or not UTF-8
        first = min([*not_json, *([error] if error else [])], default=None)
        stop = first[0] if first else float("inf")
        got = []
        with pytest.raises(SchemaError) if first else contextlib.nullcontext() as raised:
            got.extend((n, obj["id"]) for n, obj in read_jsonl(path))
        assert got == [r for r in records if r[0] < stop]
        if first:
            assert str(raised.value) == f"{path}:{first[0]}: {first[1]}"

        # load_external_labels rejects a line that is not JSON, and stops at
        # one that is not UTF-8
        if error:
            with pytest.raises(SchemaError, match=re.escape(bad)):
                load_external_labels(path)
        else:
            report = load_external_labels(path)
            assert list(report.labels) == [i for _, i in records]
            assert report.rejected == not_json

        # ingest, alone and with read_part reading from each line on, counts
        # a line that is not JSON and stops at one that is not UTF-8, once it
        # has handed on the records before it
        before = [i for n, i in records if not error or n < error[0]]
        rejected = Counter(reason for n, reason in not_json if not error or n < error[0])
        for cut in (None, *starts):
            ids = []

            def on_block(block):
                ids.extend(tweet.id for tweet in block)

            later = (read_part(path, cut, None, on_block, None) for _ in range(cut is not None))
            if error:
                with pytest.raises(SchemaError, match=re.escape(bad)):
                    ingest(path, on_block, end=cut, later=later)
            else:
                report = ingest(path, on_block, end=cut, later=later)
                assert report.rejected == rejected
                assert report.sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
            assert ids == before, cut


class TestMatchGroups:
    def test_political_keyword(self):
        got = match_groups(TERMS, tokenize("Democrats glorify the killing of the unborn."))
        assert got == {"political"}

    def test_phrase_match(self):
        got = match_groups(TERMS, tokenize("Black people are the best at everything."))
        assert got == {"ethnic"}

    def test_no_match(self):
        assert match_groups(TERMS, tokenize("hello world")) == set()

    def test_case_insensitive(self):
        text = "DEMOCRATS ARE loud"
        assert match_groups(TERMS, tokenize(text)) == match_groups(
            TERMS, tokenize(text.lower())
        )

    def test_hashtag_matches(self):
        assert match_groups(TERMS, tokenize("#democrats won")) == {"political"}

    def test_phrase_respects_token_boundaries(self):
        assert match_groups(TERMS, tokenize("whitewash men everywhere")) == set()
        assert match_groups(TERMS, tokenize("the white menace")) == set()

    def test_multi_group_union(self):
        got = match_groups(TERMS, tokenize("trans democrats unite"))
        assert got == {"gender", "political"}


class TestTermIndex:
    LEX = GroupLexicon(
        entries={
            "white": frozenset({"political"}),
            "white men": frozenset({"ethnic", "gender"}),
            "black people": frozenset({"ethnic"}),
        }
    )
    TERMS = compile_terms(parse_query("(white OR (white men) OR (black people))"), LEX)

    def match(self, text):
        return match_groups(self.TERMS, tokenize(text))

    def test_keyword_that_starts_a_phrase(self):
        assert self.match("white") == {"political"}
        assert self.match("white men") == {"political", "ethnic", "gender"}
        assert self.match("white women") == {"political"}

    def test_repeated_first_token(self):
        assert self.match("white white men") == {"political", "ethnic", "gender"}
        assert self.match("black black people") == {"ethnic"}

    def test_phrase_as_last_tokens(self):
        assert self.match("so many black people") == {"ethnic"}

    def test_phrase_longer_than_text(self):
        assert self.match("black") == set()

    def test_hashtag_starts_phrase(self):
        assert self.match("#white men") == {"political", "ethnic", "gender"}


def _sliding_window_groups(ast, lexicon, tokens):
    """Reference: every term checked at every window of the token list."""
    matched = set()
    for term in ast.disjuncts:
        k = len(term)
        if any(tuple(tokens[i : i + k]) == term for i in range(len(tokens) - k + 1)):
            matched |= lexicon.groups_for(" ".join(term))
    return matched


def test_index_matches_sliding_window_on_default_query():
    data = resources.files("genscope.data")
    ast = parse_query((data / "default_query.txt").read_text(encoding="utf-8"))
    lexicon = load_group_lexicon(data / "group_lexicon.tsv")
    terms = compile_terms(ast, lexicon)
    vocab = sorted({token for term in ast.disjuncts for token in term}) + ["the", "x"]
    rng = random.Random(0)
    for _ in range(3000):
        tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        got = match_groups(terms, tokenize(" ".join(tokens)))
        assert got == _sliding_window_groups(ast, lexicon, tokens)


class TestPartition:
    def test_single_group_placement(self):
        texts = ["democrats stuff", "trans stuff", "black people stuff"]
        assert [partition(TERMS, tokenize(t)) for t in texts] == ["political", "gender", "ethnic"]

    def test_multi_group_dropped(self):
        assert partition(TERMS, tokenize("trans democrats")) == "multi_group_dropped"

    def test_no_match_goes_unmatched(self):
        assert partition(TERMS, tokenize("nothing here")) == "unmatched"

    def test_lang_mismatch_goes_unmatched(self, tmp_path):
        records = [_record(1, "democrats", lang="de")]
        parts = _partition_counts(tmp_path, records, "(democrats) lang:en")
        assert (parts["unmatched"], parts["political"]) == (1, 0)

    def test_lang_primary_subtag_matches(self, tmp_path):
        records = [_record(1, "democrats", lang="en-GB")]
        parts = _partition_counts(tmp_path, records, "(democrats) lang:en")
        assert parts["political"] == 1

    def test_partition_completeness(self, tmp_path):
        texts = [
            "democrats", "trans", "black people", "trans democrats",
            "nothing", "liberals and trans", "white men things", "",
        ]
        records = [_record(n, t or "x") for n, t in enumerate(texts)]
        query = "(democrats OR liberals OR trans OR (black people) OR (white men))"
        parts = _partition_counts(tmp_path, records, query)
        assert list(parts) == list(BUCKETS)
        assert parts == {
            "political": 1, "gender": 1, "ethnic": 2,
            "multi_group_dropped": 2, "unmatched": 2,
        }


class TestGroupLexiconFile:
    def test_load(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text(
            "# comment line\n"
            "democrats\tpolitical\n"
            "White Men\tethnic,gender\n"
            "\n",
            encoding="utf-8",
        )
        lex = load_group_lexicon(path)
        assert lex.groups_for("democrats") == {"political"}
        assert lex.groups_for("white men") == {"ethnic", "gender"}

    def test_bad_group_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("democrats\tpolitics\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_group_lexicon(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("democrats political\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_group_lexicon(path)

    def test_missing_terms_reported(self):
        ast = parse_query("(democrats OR unknown)")
        assert LEX.missing_terms(ast) == ["unknown"]
