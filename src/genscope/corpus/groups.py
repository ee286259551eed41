"""Group categorization and corpus partitioning.

Term matching is case-insensitive on word boundaries (hashtag prefixes
are stripped by tokenization); phrases match as contiguous token
sequences, so "whitewash men" never matches the phrase "white men".
Tweets matching terms from two or more groups are dropped to prevent
double counting; tweets whose language disagrees with the query's lang
constraint go to ``unmatched``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..classifier.features import tokenize
from ..errors import SchemaError
from .query import QueryAst
from .records import Tweet

GROUPS = ("political", "gender", "ethnic")


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
    for line_number, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "\t" not in line:
            raise SchemaError(f"line {line_number}: expected 'term<TAB>groups'")
        term, groups_field = line.split("\t", 1)
        term = " ".join(term.lower().split())
        groups = frozenset(g.strip() for g in groups_field.split(",") if g.strip())
        if not term or not groups:
            raise SchemaError(f"line {line_number}: empty term or group list")
        entries[term] = groups
    return GroupLexicon(entries=entries)


# first token -> [(the term's remaining tokens, its group set)]
TermIndex = dict[str, list[tuple[tuple[str, ...], frozenset[str]]]]


def compile_terms(ast: QueryAst, lexicon: GroupLexicon) -> TermIndex:
    """Index the query's terms, with their group sets, by first token."""
    index: TermIndex = {}
    for term in ast.disjuncts:
        groups = lexicon.groups_for(" ".join(term))
        index.setdefault(term[0], []).append((term[1:], groups))
    return index


def match_groups(terms: TermIndex, tweet: Tweet) -> set[str]:
    """Union of the group sets of every query term matching the text."""
    tokens = tokenize(tweet.text)
    matched: set[str] = set()
    for i, token in enumerate(tokens):
        for rest, groups in terms.get(token, ()):
            if tuple(tokens[i + 1 : i + 1 + len(rest)]) == rest:
                matched |= groups
    return matched


@dataclass
class PartitionedCorpus:
    political: list[Tweet] = field(default_factory=list)
    gender: list[Tweet] = field(default_factory=list)
    ethnic: list[Tweet] = field(default_factory=list)
    multi_group_dropped: list[Tweet] = field(default_factory=list)
    unmatched: list[Tweet] = field(default_factory=list)

    def group(self, name: str) -> list[Tweet]:
        if name not in GROUPS:
            raise KeyError(name)
        return getattr(self, name)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "political": len(self.political),
            "gender": len(self.gender),
            "ethnic": len(self.ethnic),
            "multi_group_dropped": len(self.multi_group_dropped),
            "unmatched": len(self.unmatched),
        }

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _lang_matches(tweet_lang: str, constraint: str) -> bool:
    return tweet_lang.split("-")[0].lower() == constraint.split("-")[0].lower()


def partition(tweets, ast: QueryAst, lexicon: GroupLexicon) -> PartitionedCorpus:
    """Assign each tweet to exactly one bucket.

    Exactly one matched group -> that group's list; two or more ->
    ``multi_group_dropped``; none (or a lang mismatch) -> ``unmatched``.
    The five buckets partition the input exactly.
    """
    out = PartitionedCorpus()
    terms = compile_terms(ast, lexicon)
    for tweet in tweets:
        if ast.lang and not _lang_matches(tweet.lang, ast.lang):
            out.unmatched.append(tweet)
            continue
        groups = match_groups(terms, tweet)
        if len(groups) == 1:
            out.group(next(iter(groups))).append(tweet)
        elif len(groups) >= 2:
            out.multi_group_dropped.append(tweet)
        else:
            out.unmatched.append(tweet)
    return out
