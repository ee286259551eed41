"""The one-regex lexer against the character-by-character lexers it replaced.

Text is drawn from pieces where the lexer's alternatives compete: URL
prefixes in both cases, characters on both sides of each emoji range
(the dingbat digits are also word characters), blanks, dash runs,
apostrophes inside and outside words, clause breaks, punctuation,
abbreviation keys and a few characters no alternative matches.
"""

import pytest
from hypothesis import given, settings, strategies as st

from genscope.annotator import RuleAnnotator, normalize
from genscope.classifier import tokenize
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

# dash runs at either end of the text, and runs that mix dash kinds
EDGES = ["x -b", "x- b", "- x", "x -", "a-—b", "a —-b", "ppl –u", "HTTPS://x y", ""]

texts = st.lists(
    st.sampled_from(PIECES) | st.characters(codec="utf-8"), max_size=40
).map("".join)

ABBREVIATIONS = RuleAnnotator().lexicons.abbreviations


def check_tokenize(text):
    assert tokenize(text) == tokenize_oracle(text)


def check_normalize(text):
    clauses = normalize(text, ABBREVIATIONS).clauses
    got = [[(t.norm, t.kind, t.start, t.end) for t in clause] for clause in clauses]
    assert got == normalize_oracle(text, ABBREVIATIONS)


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
