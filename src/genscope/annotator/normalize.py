"""Text normalization for the rule engine.

Produces clauses of annotated tokens: lowercased words with their source
character spans, URL/EMOJI/BLANK class tokens, and the punctuation marks
the elliptical rules care about (colon, equals, comma, quote). Common
tweet abbreviations are expanded through a shipped, editable table, so
"White ppl be like __" normalizes to [white, people, be, like, BLANK].
Clause breaks happen at sentence punctuation, newlines, and dashes.

A ``WordTable`` caches the work per word type rather than per
occurrence: each raw surface is folded and expanded once, and each norm
gets its flag bits (present verb, group noun, ...) once, the way spaCy
keeps lexical flags on its ``Lexeme``. Every word token carries its
type's bits in ``Token.flags``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..classifier.features import LEXER_RE

# token kinds
WORD = "word"
EMOJI = "EMOJI"
URL = "URL"
BLANK = "BLANK"
COLON = ":"
EQUALS = "="
COMMA = ","
QUOTE = '"'

_PUNCT = {":": COLON, "=": EQUALS, ",": COMMA}  # the rest are quotes


@dataclass(slots=True)
class Token:
    norm: str  # normalized lowercase form (or a class token)
    kind: str
    start: int  # character span in the original text
    end: int
    flags: int = 0  # the word type's bits from a WordTable; 0 off words


class WordTable:
    """Per-vocabulary word cache: each raw word surface maps once to its
    expanded ``(norm, flags)`` parts, and each norm to the flag bits of
    ``classify`` (0 without one).

    Both dicts grow only with the distinct surfaces and norms seen, never
    per text. ``abbreviations`` and ``classify`` must not change once the
    table is in use. Threads may share a table: a race at worst computes
    one entry twice, to the same value.
    """

    def __init__(self, abbreviations: dict[str, str] | None = None, classify=None):
        self.abbreviations = abbreviations or {}
        self.classify = classify
        self.surfaces: dict[str, tuple[tuple[str, int], ...]] = {}
        self.flags: dict[str, int] = {}

    def word_flags(self, norm: str) -> int:
        flags = self.flags.get(norm)
        if flags is None:
            flags = self.flags[norm] = self.classify(norm) if self.classify else 0
        return flags

    def parts(self, surface: str) -> tuple[tuple[str, int], ...]:
        """The ``(norm, flags)`` tokens a raw word surface expands to."""
        parts = self.surfaces.get(surface)
        if parts is None:
            folded = surface.lower().replace("’", "'")
            expansion = self.abbreviations.get(folded, folded)
            parts = self.surfaces[surface] = tuple(
                (norm, self.word_flags(norm)) for norm in expansion.split()
            )
        return parts


@dataclass
class NormalizedText:
    clauses: list[list[Token]]

    @property
    def tokens(self) -> list[Token]:
        return [t for clause in self.clauses for t in clause]

    @property
    def token_texts(self) -> list[str]:
        return [t.norm for t in self.tokens]


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


def normalize(text: str, table: WordTable | None = None, matches=None) -> NormalizedText:
    """Tokenize into clauses; abbreviation expansion keeps source spans.

    Word tokens take their norms and flags from ``table`` (a fresh one,
    with no abbreviations, by default). ``matches``, when given, is
    ``lex(text)``, so a caller that lexed the text already does not lex it
    again."""
    if table is None:
        table = WordTable()
    surfaces = table.surfaces
    clauses: list[list[Token]] = []
    current: list[Token] = []
    text = text or ""
    if matches is None:
        matches = LEXER_RE.finditer(text)
    for m in matches:
        kind = m.lastgroup
        start, end = m.span()
        if kind == "word":
            surface = m.group()
            parts = surfaces.get(surface)
            if parts is None:
                parts = table.parts(surface)
            for norm, flags in parts:
                current.append(Token(norm, WORD, start, end, flags))
        elif kind == "url":
            current.append(Token(URL, URL, start, end))
        elif kind == "emoji":
            current.append(Token(EMOJI, EMOJI, start, end))
        elif kind == "blank":
            current.append(Token(BLANK, BLANK, start, end))
        elif kind == "brk":
            # mark question clauses so the interrogative logic can see them
            if text[start] == "?" and current:
                current.append(Token("?", "?", start, end))
            if current:
                clauses.append(current)
                current = []
        elif kind == "dash":
            # a dash run between spaces (or one starting with an em or en
            # dash) splits clauses
            em = text[start] != "-"
            before_space = start == 0 or text[start - 1].isspace()
            after_space = end == len(text) or text[end].isspace()
            if current and (em or (before_space and after_space)):
                clauses.append(current)
                current = []
        else:
            # standalone apostrophes act as quotes; intra-word ones were
            # already absorbed by the word pattern
            mark = _PUNCT.get(m.group(), QUOTE)
            current.append(Token(mark, mark, start, end))

    if current:
        clauses.append(current)
    return NormalizedText(clauses=clauses)
