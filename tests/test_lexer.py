"""The one-regex lexer against the character-by-character lexers it replaced.

Text is drawn from pieces where the lexer's alternatives compete: URL
prefixes in both cases, characters on both sides of each emoji range
(the dingbat digits are also word characters), blanks, dash runs,
apostrophes inside and outside words, clause breaks, punctuation,
abbreviation keys and a few characters no alternative matches.

Both lexers split a text on whitespace and scan each chunk apart.
``tokenize`` runs twice on each text, the second time finding its chunks
in the module's chunk cache, which every text of this module shares.
``normalize`` runs on a fresh word table and twice on one annotator's
shared table, so the second pass finds every word surface and chunk
cached. Its
word list must equal ``tokenize(text)``; each clause token's norm, kind
(``word`` when the ``WORD`` flag is set, else the norm itself) and span
(from ``token_spans``) must equal the oracle's, and each word's flags must
be its norm's table bits plus ``WORD``.
"""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genscope.annotator import RuleAnnotator, WordTable, normalize
from genscope.annotator.normalize import WORD, token_spans
from genscope.classifier import features, tokenize
from genscope.classifier.features import LEXER_RE, MAX_CHUNKS, TOKEN_RE
from oracles import normalize_oracle, tokenize_oracle

PIECES = [
    "http://", "https://", "HTTPS://", "HtTp://", "www.", "WWW.", "x.co/a",
    "\U0001F600", "\U0001F000", "\U0001FAFF", "\U0001FB00", "\U0001F1E6",
    "☀", "➿", "➀", "⟀", "⬀", "⯿", "■", "◿", "▟",
    "_", "__", "___", "-", "--", "—", "–", "-—", "—-", " - ", " -", "- ",
    "'", "’", '"', "“", "”",
    ".", "!", "?", ";", "\n", ":", "=", ",", "#", "@", "/",
    "é", "Ä", "ß", "ſ", "K", "0", "7", "²", " ", " ", "\t",
    "ppl", "u", "rn", "idk", "b4", "white", "Men", "like", "don", "t",
]

# dash runs at either end of the text, and runs that mix dash kinds; runs
# beside tabs, newlines, no-break and other spaces, and beside a zero-width
# space, which is no whitespace
EDGES = ["x -b", "x- b", "- x", "x -", "a-—b", "a —-b", "ppl –u", "HTTPS://x y", "",
         "-", "--", "-—", "—", "–-", "-x", "x-", "x--", "—x", "x–",
         "x\t-\ty", "x\t-y", "x-\ty", "x\n-\ny", "x\n--", "--\nx", "\n-\n", "a.-.b",
         "x\u00a0-\u00a0y", "x\u00a0-y", "x\u2003--\u3000y", "x\u200b-\u200by",
         "x\u00a0-", "-\u00a0x", "\t-", "-\t", "x -\u00a0", "x\u200b-", "-\u200bx",
         "ppl\t-—\tu", "x —- y", "x-—-y", "__-__", "x:-", "-?", "x -?", "http://a - b",
         # line ends: \r\n, blank lines, and newlines that lead or end the text
         "x\r\ny", "x?\r\n-\r\ny", "x\n\ny", "x.\n\n?y", "\nx", "\n\nx", "x\n", "x?\n\n",
         "\r\n", "\n\n", "\n?\n", "\r\nx -\r\n",
         # dash runs at a chunk's edge, beside a break or a mark in the chunk
         "x -- y", "x --y", "x-- y", "x -. y", "x .- y", "x ?-- y", "x --? y", "x :- y",
         "x -: y", "x ‘- y", "x -__ y", "\U0001F600-", "-\U0001F600", "www.x -"]

texts = st.lists(
    st.sampled_from(PIECES) | st.characters(codec="utf-8"), max_size=40
).map("".join)

ANNOTATOR = RuleAnnotator()
ABBREVIATIONS = ANNOTATOR.lexicons.abbreviations
GOLD = Path(__file__).parent / "data" / "annotator_gold"


@pytest.fixture(autouse=True, scope="module")
def chunk_cache():
    # tokenize's chunk cache, empty at the start of this module, so that
    # what other modules tokenized neither fills it nor counts here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_CHUNKS", {})
        yield


def check_tokenize(text):
    expected = tokenize_oracle(text)
    assert tokenize(text) == expected
    assert tokenize(text) == expected  # from the chunk cache


def check_normalize(text):
    expected = normalize_oracle(text, ABBREVIATIONS)
    for table in (WordTable(ABBREVIATIONS), ANNOTATOR.words, ANNOTATOR.words):
        words, clauses = normalize(text, table)
        assert words == tokenize_oracle(text)
        spans = token_spans(text, table)
        got = [
            [(norm, "word" if f & WORD else norm, start, end)
             for norm, f, (start, end) in zip(
                 clause.norms, clause.flags, spans[clause.start:])]
            for clause in clauses
        ]
        assert sum(map(len, got)) == len(spans)
        assert got == expected
        for clause in clauses:
            for norm, f in zip(clause.norms, clause.flags):
                assert f == (table.flags[norm] | WORD if f & WORD else 0)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(texts)
def test_tokenize_matches_oracle(text):
    check_tokenize(text)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(texts)
def test_normalize_matches_oracle(text):
    check_normalize(text)


@pytest.mark.parametrize("text", EDGES)
def test_edges_match_oracles(text):
    check_tokenize(text)
    check_normalize(text)


def test_table_holds_each_surface_and_norm_once():
    texts = EDGES + [
        line
        for path in sorted(GOLD.iterdir())
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    surfaces, norms = set(), set()
    for text in texts:
        for clause in normalize_oracle(text, ABBREVIATIONS):
            for norm, kind, start, end in clause:
                if kind == "word":
                    surfaces.add(text[start:end])
                    norms.add(norm)
    table = RuleAnnotator(ANNOTATOR.lexicons).words  # a fresh, empty table
    for text in texts:
        normalize(text, table)
    assert set(table.surfaces) == surfaces
    assert set(table.flags) == norms
    for text in texts:
        normalize(text, table)
    assert (len(table.surfaces), len(table.flags)) == (len(surfaces), len(norms))


def test_urls_emoji_and_marks_leave_the_table_as_it_was(monkeypatch):
    # a URL's chunk is never stored; an emoji's or a mark's is, once
    table = RuleAnnotator(ANNOTATOR.lexicons).words  # a fresh, empty table
    monkeypatch.setattr(features, "_CHUNKS", {})  # tokenize's, empty
    marks = " ".join(
        [*"'\":=,“”.!?;", "\n", "__", "___", "-", "--", "—", "–-", "a-b", "\U0001F600"]
    )
    normalize(marks, table)
    tokenize(marks)
    before = (len(table.surfaces), len(table.flags), len(table.chunks), len(features._CHUNKS))
    assert before == (2, 2, 19, 19)  # the words a and b; every chunk
    for i in range(10_000):
        text = f"https://t.co/{i} www.x{i}.com/\U0001F600 -http://{i} “www.{i}” {marks}"
        normalize(text, table)
        tokenize(text)
    after = (len(table.surfaces), len(table.flags), len(table.chunks), len(features._CHUNKS))
    assert after == before


def test_chunk_caches_keep_at_most_max_chunks(monkeypatch):
    # 10^5 distinct chunks, some with a clause break inside; past the cap
    # a chunk is scanned again, to what a fresh table and cache give
    table = RuleAnnotator(ANNOTATOR.lexicons).words  # a fresh, empty table
    monkeypatch.setattr(features, "_CHUNKS", {})  # tokenize's, empty
    texts = [" ".join(f"u{i}v{j}" if j % 3 else f"u{i}.v{j}?" for j in range(10))
             for i in range(10_000)]
    for text in texts:
        normalize(text, table)
        tokenize(text)
    assert len(table.chunks) == len(features._CHUNKS) == MAX_CHUNKS < 10**5
    for text in [*texts[:3], *texts[-3:]]:
        fresh = RuleAnnotator(ANNOTATOR.lexicons).words
        assert normalize(text, table) == normalize(text, fresh)
        assert normalize(text, table)[0] == tokenize(text) == tokenize_oracle(text)
        assert [c.norms for c in normalize(text, fresh)[1]] == [
            [norm for norm, *_ in clause] for clause in normalize_oracle(text, ABBREVIATIONS)
        ]


def test_whitespace_guard_drops_no_match():
    # LEXER_RE opens with a guard that fails on whitespace other than a
    # newline; without it, no alternative matches at such a character either
    unguarded = re.compile(LEXER_RE.pattern.removeprefix(r"(?=\S|\n)"))
    assert unguarded.pattern != LEXER_RE.pattern
    spaces = set(SPACES) - {"\n"}
    assert len(spaces) > 20
    assert [c for c in sorted(spaces) if unguarded.match(c + "x")] == []


# tokenize's findall pattern leaves out the kinds that make no token; the
# characters of those kinds, next to the first characters of the token
# kinds, then emoji beside letters and every whitespace character
SPACES = re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))
NO_TOKEN_STARTS = "_.!?;\n-—–:=,\"“”'"
SKIPPED = ["_", "__", "-", "—", "–", "'", "’", ".", "!", "?", ";", ":", "=", ",", '"', "“", "”"]
STARTS = ["x", "É", "中", "7", "h", "w", "www.", "WwW.", "http://", "https://", "\U0001F600",
          "➀", "■"]
BOUNDARIES = ["__x", "--x", "'x", ".www.x", "a:http://b", "a\U0001F600b", "\U0001F600a",
              "a➀", "➀a", "x’y", "x'", "www.", "http:", "_x_", "a.b", "a:b"]
boundary_texts = st.lists(
    st.sampled_from(SKIPPED + STARTS + BOUNDARIES + SPACES), max_size=16
).map("".join)


@pytest.mark.parametrize("space", [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()])
def test_every_whitespace_character_separates_chunks(space):
    # str.split's separators (str.isspace) are the characters \s matches,
    # so each one ends a chunk as it ends a match, and bounds a breaking
    # dash run
    assert space in SPACES
    assert len(SPACES) == 29
    text = space.join(["", "x", "-", "y—", "--z", "a-", "www.a", "b?", "__", "c", "-", ""])
    check_tokenize(text)
    check_normalize(text)


def check_token_pattern(text):
    # the kinds that make no token are those whose surfaces start with a
    # character no token kind starts with; a hyphen run's surface is ""
    kept = [s for s in LEXER_RE.findall(text) if s and s[0] not in NO_TOKEN_STARTS]
    assert TOKEN_RE.findall(text) == kept
    tokens = tokenize_oracle(text)
    assert tokenize(text) == tokenize(text) == tokens
    assert normalize(text, ANNOTATOR.words)[0] == tokens


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(boundary_texts)
def test_token_pattern_finds_the_lexers_tokens(text):
    check_token_pattern(text)


@pytest.mark.parametrize("text", BOUNDARIES + ["".join(SPACES) + "x" + "".join(SPACES)])
def test_token_pattern_at_kind_boundaries(text):
    check_token_pattern(text)
