"""One lexer scan per text: the word list and the rule engine's clauses.

``normalize`` splits a text into lines and each line on whitespace, and
looks each chunk up in the ``WordTable``; ``LEXER_RE.findall`` runs only
on a chunk the table lacks, and resolves each surface it returns with one
dict lookup. It returns the word list that ``tokenize`` gives (what
partition, sentiment and bag-of-words features read) and the text's
clauses. A clause is two parallel lists, each token's norm and its flag
bits, plus the index of its first token among the text's tokens. A
word's norm is its lowercased form, with common tweet abbreviations
expanded through a shipped, editable table, so "White ppl be like __"
normalizes to [white, people, be, like, BLANK]. Every other token's norm
is its kind: URL, EMOJI, BLANK, a question mark closing a question
clause, or the punctuation the elliptical rules care about (colon,
equals, comma, quote). Clause breaks happen at sentence punctuation,
newlines, and dashes that the grammar marks as breaking.

Word surfaces resolve through the ``WordTable``; the closed set of marks
(punctuation and quotes) through a fixed dict and clause breaks through a
fixed set; URLs, emoji and blanks by rule. Neither a URL nor a chunk that
holds one is cached, since real tweet URLs are unique, and the table keeps
at most ``MAX_CHUNKS`` chunks, the first it meets. No token's
character span is kept: ``token_spans`` finds them with one ``finditer``
of the same pattern over the whole text, for the rare reader of a
verdict's ``subject_span``; both walks number tokens through one helper,
``_surface_entry``.

A ``WordTable`` does the work per word type rather than per occurrence:
each raw surface is folded and expanded once, and each norm gets its
flag bits (present verb, group noun, ...) once, the way spaCy keeps
lexical flags on its ``Lexeme``; each chunk, the way spaCy's tokenizer
caches each whitespace-separated substring, is lexed once. Every word
token carries ``WORD`` plus its type's bits; every other token carries 0.
"""

from __future__ import annotations

from typing import NamedTuple

from ..classifier.features import _EMOJI_RE, LEXER_RE, MAX_CHUNKS
from ..classifier.features import EMOJI_TOKEN as EMOJI
from ..classifier.features import URL_TOKEN as URL
from ..errors import SchemaError, content_lines

# the norms of tokens that are not words
BLANK = "BLANK"
QUESTION = "?"
COLON = ":"
EQUALS = "="
COMMA = ","
QUOTE = '"'

WORD = 1 << 16  # on every word token's flags; a classify function's bits sit below it

# entries, as ``WordTable.entry`` gives them, of the tokens that no table holds
_URL_ENTRY = ((URL,), (URL,), (0,))
_EMOJI_ENTRY = ((EMOJI,), (EMOJI,), (0,))
_BLANK_ENTRY = ((), (BLANK,), (0,))  # a blank is no entry in the word list
# The entry of each mark surface: the closed set of punctuation and quotes,
# and "" (a hyphen run), which makes no token. Standalone apostrophes act
# as quotes (intra-word ones are part of the word).
_MARKS = {
    surface: ((), (norm,), (0,))
    for surface, norm in {
        ":": COLON, "=": EQUALS, ",": COMMA, '"': QUOTE, "“": QUOTE, "”": QUOTE, "'": QUOTE,
    }.items()
}
_MARKS[""] = ((), (), ())
_BREAKS = frozenset([QUESTION, ".", "!", ";", "\n"])
_DASHES = "-—–"  # any other surface that starts with one is a breaking dash run


class Clause(NamedTuple):
    norms: list[str]
    flags: list[int]
    start: int  # the index of its first token among the text's tokens


class WordTable:
    """Per-vocabulary word cache: each raw word surface maps once to its
    run ``(words, norms, flags)``: its folded form, the one entry it adds
    to the word list, and the norms and flag bits of the tokens it expands
    to. Each norm maps to the flag bits of ``classify`` (0 without one),
    and each whitespace-free chunk of text to the run of its one token or
    to the runs of its tokens and the clause breaks between them
    (``_chunk_entry``).

    The dicts grow only with the distinct surfaces, norms and chunks seen,
    never per text. ``chunks`` keeps the first ``MAX_CHUNKS`` chunks met,
    and none that holds a URL.
    ``abbreviations`` and ``classify`` must not change once the table is in
    use. Threads may share a table: a race at worst computes one entry
    twice, to the same value.
    """

    def __init__(self, abbreviations: dict[str, str] | None = None, classify=None):
        self.abbreviations = abbreviations or {}
        self.classify = classify
        self.surfaces: dict[str, tuple[tuple[str], tuple[str, ...], tuple[int, ...]]] = {}
        self.flags: dict[str, int] = {}
        self.chunks: dict[str, tuple | list] = {}

    def word_flags(self, norm: str) -> int:
        flags = self.flags.get(norm)
        if flags is None:
            flags = self.flags[norm] = self.classify(norm) if self.classify else 0
        return flags

    def entry(self, surface: str) -> tuple[tuple[str], tuple[str, ...], tuple[int, ...]]:
        """A raw word surface's run: its folded form (its entry in the word
        list) and the norms and flags of the tokens it expands to."""
        entry = self.surfaces.get(surface)
        if entry is None:
            folded = surface.lower().replace("’", "'")
            norms = tuple(self.abbreviations.get(folded, folded).split())
            flags = tuple(self.word_flags(norm) | WORD for norm in norms)
            entry = self.surfaces[surface] = ((folded,), norms, flags)
        return entry


def load_abbreviations(path) -> dict[str, str]:
    """``token<TAB>expansion`` per line; ``#`` comments. Expansions may
    contain spaces and become several tokens; a line without a tab, or
    with nothing on one side of it, is a SchemaError."""
    table: dict[str, str] = {}
    for line_number, line in content_lines(path):
        token, _, expansion = (side.strip() for side in line.partition("\t"))
        if not token or not expansion:
            raise SchemaError(f"{path}:{line_number}: expected 'token<TAB>expansion'")
        table[token.lower()] = expansion.lower()
    return table


def _surface_entry(surface: str, table: WordTable):
    """The entry of the tokens a ``LEXER_RE`` surface that ``table.surfaces``
    lacks makes, or None for a clause break: a mark's, a URL's, emoji's or
    blank's by rule and never cached, else a new word's. ``normalize`` and
    ``token_spans`` both number tokens by it."""
    entry = _MARKS.get(surface)
    if entry is not None:
        return entry
    if surface in _BREAKS or surface[0] in _DASHES:
        return None
    if surface[0] == "_":
        return _BLANK_ENTRY
    if "." in surface or ":" in surface:
        return _URL_ENTRY  # no word holds either
    if len(surface) == 1 and _EMOJI_RE.match(surface):
        return _EMOJI_ENTRY  # a longer word starting with one lexes apart
    return table.entry(surface)


def _chunk_entry(chunk: str, table: WordTable) -> tuple | list:
    """The entry of a whitespace-free chunk of text, from one
    ``LEXER_RE.findall``: the run of its one token, or the list of its
    tokens' runs with each clause break's surface among them. Stored in
    ``table.chunks`` unless it holds a URL or the table is full."""
    surfaces = table.surfaces
    items: list = []
    for surface in LEXER_RE.findall(chunk):
        run = surfaces.get(surface) or _surface_entry(surface, table)
        items.append(surface if run is None else run)  # None: a clause break
    entry = items[0] if len(items) == 1 and type(items[0]) is tuple else items
    if _URL_ENTRY not in items and len(table.chunks) < MAX_CHUNKS:
        table.chunks[chunk] = entry
    return entry


def normalize(text: str, table: WordTable | None = None) -> tuple[list[str], list[Clause]]:
    """The word list and the clauses of ``text``.

    The word list equals ``tokenize(text)``. Word tokens take their norms
    and flags from ``table`` (a fresh one, with no abbreviations, by
    default); an expanded word gives several tokens. No clause is empty.

    The text is split into lines, each line closing a clause (``\\n`` is
    the one whitespace token), and each line on whitespace; each chunk's
    entry comes from ``table.chunks``, and ``_chunk_entry`` scans only a
    chunk the table lacks. ``tokenize`` says why that is one scan of the
    whole text."""
    if table is None:
        table = WordTable()
    chunks = table.chunks
    words: list[str] = []
    clauses: list[Clause] = []
    norms: list[str] = []
    flags: list[int] = []
    start = 0
    for line in (text or "").split("\n"):
        for chunk in line.split():
            entry = chunks.get(chunk)
            if entry is None:
                entry = _chunk_entry(chunk, table)
            if type(entry) is tuple:  # one token's run
                words += entry[0]
                norms += entry[1]
                flags += entry[2]
                continue
            for item in entry:
                if type(item) is tuple:
                    words += item[0]
                    norms += item[1]
                    flags += item[2]
                elif norms:  # a clause break
                    # mark question clauses so the interrogative logic can see them
                    if item == QUESTION:
                        norms.append(QUESTION)
                        flags.append(0)
                    clauses.append(Clause(norms, flags, start))
                    start += len(norms)
                    norms, flags = [], []
        if norms:  # the line's end breaks the clause
            clauses.append(Clause(norms, flags, start))
            start += len(norms)
            norms, flags = [], []
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
