"""One lexer walk per text: the word list and the rule engine's clauses.

``normalize`` runs ``LEXER_RE`` over a text once. It returns the word
list that ``tokenize`` gives (what partition, sentiment and bag-of-words
features read) and the text's clauses. A clause is three parallel lists:
each token's norm, its flag bits and its character span in the source.
A word's norm is its lowercased form, with common tweet abbreviations
expanded through a shipped, editable table, so "White ppl be like __"
normalizes to [white, people, be, like, BLANK]. Every other token's norm
is its kind: URL, EMOJI, BLANK, a question mark closing a question
clause, or the punctuation the elliptical rules care about (colon,
equals, comma, quote). Clause breaks happen at sentence punctuation,
newlines, and dashes.

A ``WordTable`` does the work per word type rather than per occurrence:
each raw surface is folded and expanded once, and each norm gets its
flag bits (present verb, group noun, ...) once, the way spaCy keeps
lexical flags on its ``Lexeme``. Every word token carries ``WORD`` plus
its type's bits; every other token carries 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from ..classifier.features import EMOJI_TOKEN as EMOJI
from ..classifier.features import LEXER_RE
from ..classifier.features import URL_TOKEN as URL

# the norms of tokens that are not words
BLANK = "BLANK"
QUESTION = "?"
COLON = ":"
EQUALS = "="
COMMA = ","
QUOTE = '"'

_PUNCT = {":": COLON, "=": EQUALS, ",": COMMA}  # the rest are quotes

WORD = 1 << 16  # on every word token's flags; a classify function's bits sit below it


class Clause(NamedTuple):
    norms: list[str]
    flags: list[int]
    spans: list[tuple[int, int]]  # character spans in the source text


class WordTable:
    """Per-vocabulary word cache: each raw word surface maps once to its
    folded form and the norms and flag bits of the tokens it expands to,
    and each norm to the flag bits of ``classify`` (0 without one).

    Both dicts grow only with the distinct surfaces and norms seen, never
    per text. ``abbreviations`` and ``classify`` must not change once the
    table is in use. Threads may share a table: a race at worst computes
    one entry twice, to the same value.
    """

    def __init__(self, abbreviations: dict[str, str] | None = None, classify=None):
        self.abbreviations = abbreviations or {}
        self.classify = classify
        self.surfaces: dict[str, tuple[str, tuple[str, ...], tuple[int, ...]]] = {}
        self.flags: dict[str, int] = {}

    def word_flags(self, norm: str) -> int:
        flags = self.flags.get(norm)
        if flags is None:
            flags = self.flags[norm] = self.classify(norm) if self.classify else 0
        return flags

    def entry(self, surface: str) -> tuple[str, tuple[str, ...], tuple[int, ...]]:
        """A raw word surface's folded form (its entry in the word list)
        and the norms and flags of the tokens it expands to."""
        entry = self.surfaces.get(surface)
        if entry is None:
            folded = surface.lower().replace("’", "'")
            norms = tuple(self.abbreviations.get(folded, folded).split())
            flags = tuple(self.word_flags(norm) | WORD for norm in norms)
            entry = self.surfaces[surface] = (folded, norms, flags)
        return entry


def load_abbreviations(path) -> dict[str, str]:
    """``token<TAB>expansion`` per line; ``#`` comments. Expansions may
    contain spaces and become several tokens."""
    table: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        token, _, expansion = line.partition("\t")
        if token and expansion:
            table[token.strip().lower()] = expansion.strip().lower()
    return table


def normalize(text: str, table: WordTable | None = None) -> tuple[list[str], list[Clause]]:
    """The word list and the clauses of ``text``, from one lexer walk.

    The word list equals ``tokenize(text)``. Word tokens take their norms
    and flags from ``table`` (a fresh one, with no abbreviations, by
    default); an expanded word's tokens all keep the word's span. No
    clause is empty."""
    if table is None:
        table = WordTable()
    surfaces = table.surfaces
    words: list[str] = []
    clauses: list[Clause] = []
    norms: list[str] = []
    flags: list[int] = []
    spans: list[tuple[int, int]] = []
    text = text or ""
    for m in LEXER_RE.finditer(text):
        kind = m.lastgroup
        if kind == "word":
            surface = m.group()
            entry = surfaces.get(surface)
            if entry is None:
                entry = table.entry(surface)
            folded, word_norms, word_flags = entry
            words.append(folded)
            if len(word_norms) == 1:
                norms.append(word_norms[0])
                flags.append(word_flags[0])
                spans.append(m.span())
            else:
                norms.extend(word_norms)
                flags.extend(word_flags)
                spans.extend([m.span()] * len(word_norms))
        elif kind == "url":
            words.append(URL)
            norms.append(URL)
            flags.append(0)
            spans.append(m.span())
        elif kind == "emoji":
            words.append(EMOJI)
            norms.append(EMOJI)
            flags.append(0)
            spans.append(m.span())
        elif kind == "blank":
            norms.append(BLANK)
            flags.append(0)
            spans.append(m.span())
        elif kind == "brk":
            if norms:
                # mark question clauses so the interrogative logic can see them
                if m.group() == QUESTION:
                    norms.append(QUESTION)
                    flags.append(0)
                    spans.append(m.span())
                clauses.append(Clause(norms, flags, spans))
                norms, flags, spans = [], [], []
        elif kind == "dash":
            # a dash run between spaces (or one starting with an em or en
            # dash) splits clauses
            start, end = m.span()
            em = text[start] != "-"
            before_space = start == 0 or text[start - 1].isspace()
            after_space = end == len(text) or text[end].isspace()
            if norms and (em or (before_space and after_space)):
                clauses.append(Clause(norms, flags, spans))
                norms, flags, spans = [], [], []
        else:
            # standalone apostrophes act as quotes; intra-word ones were
            # already absorbed by the word pattern
            mark = _PUNCT.get(m.group(), QUOTE)
            norms.append(mark)
            flags.append(0)
            spans.append(m.span())

    if norms:
        clauses.append(Clause(norms, flags, spans))
    return words, clauses
