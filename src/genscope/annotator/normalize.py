"""One lexer scan per text: the word list and the rule engine's clauses.

``normalize`` runs ``LEXER_RE.findall`` over a text once and resolves
each surface it returns with one dict lookup. It returns the word list
that ``tokenize`` gives (what partition, sentiment and bag-of-words
features read) and the text's clauses. A clause is two parallel lists,
each token's norm and its flag bits, plus the index of its first token
among the text's tokens. A word's norm is its lowercased form, with
common tweet abbreviations expanded through a shipped, editable table,
so "White ppl be like __" normalizes to [white, people, be, like,
BLANK]. Every other token's norm is its kind: URL, EMOJI, BLANK, a
question mark closing a question clause, or the punctuation the
elliptical rules care about (colon, equals, comma, quote). Clause breaks
happen at sentence punctuation, newlines, and dashes that the grammar
marks as breaking.

Word surfaces resolve through the ``WordTable``; the closed set of marks
(punctuation and quotes) through a fixed dict and clause breaks through a
fixed set; URLs, emoji and blanks by rule, and never cached, since real
tweet URLs are unique. No token's character span is kept: ``token_spans``
finds them with one ``finditer`` of the same pattern, for the rare reader
of a verdict's ``subject_span``; both walks number tokens through one
helper, ``_surface_entry``.

A ``WordTable`` does the work per word type rather than per occurrence:
each raw surface is folded and expanded once, and each norm gets its
flag bits (present verb, group noun, ...) once, the way spaCy keeps
lexical flags on its ``Lexeme``. Every word token carries ``WORD`` plus
its type's bits; every other token carries 0.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from ..classifier.features import _EMOJI_RE, LEXER_RE
from ..classifier.features import EMOJI_TOKEN as EMOJI
from ..classifier.features import URL_TOKEN as URL

# the norms of tokens that are not words
BLANK = "BLANK"
QUESTION = "?"
COLON = ":"
EQUALS = "="
COMMA = ","
QUOTE = '"'

WORD = 1 << 16  # on every word token's flags; a classify function's bits sit below it

# entries, as ``WordTable.entry`` gives them, of the tokens that no table holds
_URL_ENTRY = (URL, (URL,), (0,))
_EMOJI_ENTRY = (EMOJI, (EMOJI,), (0,))
_BLANK_ENTRY = (None, (BLANK,), (0,))  # a blank is no entry in the word list
# The entry of each mark surface: the closed set of punctuation and quotes,
# and "" (a hyphen run), which makes no token. Standalone apostrophes act
# as quotes (intra-word ones are part of the word).
_MARKS = {
    surface: (None, (norm,), (0,))
    for surface, norm in {
        ":": COLON, "=": EQUALS, ",": COMMA, '"': QUOTE, "“": QUOTE, "”": QUOTE, "'": QUOTE,
    }.items()
}
_MARKS[""] = (None, (), ())
_BREAKS = frozenset([QUESTION, ".", "!", ";", "\n"])
_DASHES = "-—–"  # any other surface that starts with one is a breaking dash run


class Clause(NamedTuple):
    norms: list[str]
    flags: list[int]
    start: int  # the index of its first token among the text's tokens


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

    def token(self, surface: str) -> tuple[str | None, tuple[str, ...], tuple[int, ...]]:
        """The entry of a token surface that ``surfaces`` lacks: a URL,
        emoji or blank by rule, never cached, else a new word."""
        if surface[0] == "_":
            return _BLANK_ENTRY
        if "." in surface or ":" in surface:
            return _URL_ENTRY  # no word holds either
        if len(surface) == 1 and _EMOJI_RE.match(surface):
            return _EMOJI_ENTRY  # a longer word starting with one lexes apart
        return self.entry(surface)


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


def _surface_entry(surface: str, table: WordTable):
    """The entry of the tokens a ``LEXER_RE`` surface that ``table.surfaces``
    lacks makes (a mark's, a URL's, emoji's or blank's, or a new word's),
    or None for a clause break. ``normalize`` and ``token_spans`` both
    number tokens by it."""
    entry = _MARKS.get(surface)
    if entry is None and surface not in _BREAKS and surface[0] not in _DASHES:
        entry = table.token(surface)
    return entry


def normalize(text: str, table: WordTable | None = None) -> tuple[list[str], list[Clause]]:
    """The word list and the clauses of ``text``, from one lexer scan.

    The word list equals ``tokenize(text)``. Word tokens take their norms
    and flags from ``table`` (a fresh one, with no abbreviations, by
    default); an expanded word gives several tokens. No clause is empty."""
    if table is None:
        table = WordTable()
    surfaces = table.surfaces
    words: list[str] = []
    clauses: list[Clause] = []
    norms: list[str] = []
    flags: list[int] = []
    start = 0
    for surface in LEXER_RE.findall(text or ""):
        entry = surfaces.get(surface) or _surface_entry(surface, table)
        if entry is None:  # a clause break
            if norms:
                # mark question clauses so the interrogative logic can see them
                if surface == QUESTION:
                    norms.append(QUESTION)
                    flags.append(0)
                clauses.append(Clause(norms, flags, start))
                start += len(norms)
                norms, flags = [], []
            continue
        word, word_norms, word_flags = entry
        if word is not None:
            words.append(word)
        if len(word_norms) == 1:
            norms.append(word_norms[0])
            flags.append(word_flags[0])
        else:
            norms.extend(word_norms)
            flags.extend(word_flags)

    if norms:
        clauses.append(Clause(norms, flags, start))
    return words, clauses


def token_spans(text: str, table: WordTable) -> list[tuple[int, int]]:
    """The character span in ``text`` of each token of ``normalize(text,
    table)``'s clauses, in order, from one ``finditer`` of the same
    pattern. An expanded word's tokens all keep the word's span."""
    spans: list[tuple[int, int]] = []
    clause_open = False  # whether the current clause has a token yet
    for m in LEXER_RE.finditer(text or ""):
        surface = m[1] or ""  # a hyphen run matches outside the group
        entry = table.surfaces.get(surface) or _surface_entry(surface, table)
        if entry is None:  # a clause break
            if surface == QUESTION and clause_open:
                spans.append(m.span())
            clause_open = False
        elif entry[1]:
            spans.extend([m.span()] * len(entry[1]))
            clause_open = True
    return spans
