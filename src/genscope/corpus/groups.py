"""Group categorization and corpus partitioning.

Term matching is case-insensitive on word boundaries (hashtag prefixes
are stripped by tokenization); phrases match as contiguous token
sequences, so "whitewash men" never matches the phrase "white men".
Tweets matching terms from two or more groups are dropped to prevent
double counting; tweets whose language disagrees with the query's lang
constraint go to ``unmatched``. ``partition`` buckets one tweet at a time
from the word tokens its caller lexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..classifier.features import tokenize  # unused here; the benchmark tracer wraps it
from ..errors import SchemaError, naming_decode_errors
from .query import QueryAst

GROUPS = ("political", "gender", "ethnic")
# the report's partition block, in order: every accepted tweet lands in one
BUCKETS = (*GROUPS, "multi_group_dropped", "unmatched")


@dataclass
class GroupLexicon:
    """Map from query term text (e.g. "white men") to its group set."""

    entries: dict[str, frozenset[str]]

    def __post_init__(self):
        for term, groups in self.entries.items():
            if not groups:
                raise SchemaError(f"term {term!r} has an empty group set")
            unknown = set(groups) - set(GROUPS)
            if unknown:
                raise SchemaError(
                    f"term {term!r} maps to unknown groups {sorted(unknown)}"
                )

    def groups_for(self, term_text: str) -> frozenset[str]:
        return self.entries.get(term_text, frozenset())

    def missing_terms(self, ast: QueryAst) -> list[str]:
        return [t for t in ast.term_texts() if t not in self.entries]


def load_group_lexicon(path) -> GroupLexicon:
    """Read ``term<TAB>group[,group]`` lines; ``#`` starts a comment."""
    entries: dict[str, frozenset[str]] = {}
    with naming_decode_errors(path):
        text = Path(path).read_text(encoding="utf-8")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "\t" not in line:
            raise SchemaError(f"{path}:{line_number}: expected 'term<TAB>groups'")
        term, groups_field = line.split("\t", 1)
        term = " ".join(term.lower().split())
        groups = frozenset(g.strip() for g in groups_field.split(",") if g.strip())
        if not term or not groups:
            raise SchemaError(f"{path}:{line_number}: empty term or group list")
        entries[term] = groups
    try:
        return GroupLexicon(entries=entries)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


# first token -> [(the term's remaining tokens, its group set)]
TermIndex = dict[str, list[tuple[tuple[str, ...], frozenset[str]]]]


def compile_terms(ast: QueryAst, lexicon: GroupLexicon) -> TermIndex:
    """Index the query's terms, with their group sets, by first token."""
    index: TermIndex = {}
    for term in ast.disjuncts:
        groups = lexicon.groups_for(" ".join(term))
        index.setdefault(term[0], []).append((term[1:], groups))
    return index


def match_groups(terms: TermIndex, tokens: list[str]) -> set[str]:
    """Union of the group sets of every query term matching the word tokens
    (``tokenize``'s output)."""
    matched: set[str] = set()
    for i, token in enumerate(tokens):
        for rest, groups in terms.get(token, ()):
            if tuple(tokens[i + 1 : i + 1 + len(rest)]) == rest:
                matched |= groups
    return matched


def lang_matches(tweet_lang: str, constraint: str) -> bool:
    """Whether a tweet's ``lang`` meets a query's ``lang:`` constraint, by
    primary subtag ("en-GB" meets "en")."""
    return tweet_lang.split("-")[0].lower() == constraint.split("-")[0].lower()


def partition(terms: TermIndex, tokens: list[str]) -> str:
    """The bucket of one tweet whose lang passed ``lang_matches``: its one
    matched group, ``multi_group_dropped`` for two or more, ``unmatched``
    for none. A tweet whose lang fails goes to ``unmatched`` unlexed, so
    every tweet lands in exactly one of ``BUCKETS``."""
    groups = match_groups(terms, tokens)
    if len(groups) == 1:
        return next(iter(groups))
    return "multi_group_dropped" if groups else "unmatched"
