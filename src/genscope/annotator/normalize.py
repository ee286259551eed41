"""Text normalization for the rule engine.

Produces clauses of annotated tokens: lowercased words with their source
character spans, URL/EMOJI/BLANK class tokens, and the punctuation marks
the elliptical rules care about (colon, equals, comma, quote). Common
tweet abbreviations are expanded through a shipped, editable table, so
"White ppl be like __" normalizes to [white, people, be, like, BLANK].
Clause breaks happen at sentence punctuation, newlines, and dashes.
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


@dataclass(frozen=True)
class Token:
    norm: str  # normalized lowercase form (or a class token)
    kind: str
    start: int  # character span in the original text
    end: int


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


def normalize(text: str, abbreviations: dict[str, str] | None = None) -> NormalizedText:
    """Tokenize into clauses; abbreviation expansion keeps source spans."""
    abbreviations = abbreviations or {}
    clauses: list[list[Token]] = []
    current: list[Token] = []

    def break_clause():
        nonlocal current
        if current:
            clauses.append(current)
            current = []

    text = text or ""
    for m in LEXER_RE.finditer(text):
        kind = m.lastgroup
        start, end = m.span()
        if kind == "word":
            surface = m.group().lower().replace("’", "'")
            expansion = abbreviations.get(surface, surface)
            for part in expansion.split():
                current.append(Token(part, WORD, start, end))
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
            break_clause()
        elif kind == "dash":
            # a dash run between spaces (or one starting with an em or en
            # dash) splits clauses
            em = text[start] != "-"
            before_space = start == 0 or text[start - 1].isspace()
            after_space = end == len(text) or text[end].isspace()
            if em or (before_space and after_space):
                break_clause()
        else:
            # standalone apostrophes act as quotes; intra-word ones were
            # already absorbed by the word pattern
            mark = _PUNCT.get(m.group(), QUOTE)
            current.append(Token(mark, mark, start, end))

    break_clause()
    return NormalizedText(clauses=clauses)
