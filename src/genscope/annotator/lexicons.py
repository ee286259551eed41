"""Rule lexicons: the word lists the annotator's patterns consult.

All lists ship as editable data files; ``RuleLexicons.default()`` loads
the bundled ones. Closed-class function words (pronouns, prepositions,
determiners, modals) are code-level constants in the rules module since
they define the grammar of the patterns rather than tunable vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SchemaError, bundled, content_lines
from .normalize import load_abbreviations


def load_wordlist(path) -> frozenset[str]:
    """One word per line; ``#`` comments. A line holding a space or a tab
    is a SchemaError: a word list entry is one token."""
    words = set()
    for line_number, line in content_lines(path):
        if " " in line or "\t" in line:
            raise SchemaError(f"{path}:{line_number}: expected one word, not {line!r}")
        words.add(line.lower())
    return frozenset(words)


@dataclass
class RuleLexicons:
    quantifiers: frozenset[str]
    group_nouns: frozenset[str]
    group_modifiers: frozenset[str]
    hedge_adverbs: frozenset[str]
    verbs: frozenset[str]  # base/present forms
    irregular_pasts: frozenset[str]
    interjections: frozenset[str]
    abbreviations: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("quantifiers", "group_nouns", "hedge_adverbs", "verbs"):
            if not getattr(self, name):
                raise SchemaError(f"lexicon {name} must be non-empty")
        overlap = self.quantifiers & self.hedge_adverbs
        if overlap:
            raise SchemaError(
                f"quantifier and hedge sets must be disjoint; both contain {sorted(overlap)}"
            )

    @classmethod
    def default(cls) -> "RuleLexicons":
        return cls(
            quantifiers=load_wordlist(bundled("quantifiers.txt")),
            group_nouns=load_wordlist(bundled("group_nouns.txt")),
            group_modifiers=load_wordlist(bundled("group_modifiers.txt")),
            hedge_adverbs=load_wordlist(bundled("hedges.txt")),
            verbs=load_wordlist(bundled("verbs.txt")),
            irregular_pasts=load_wordlist(bundled("verbs_irregular_past.txt")),
            interjections=load_wordlist(bundled("interjections.txt")),
            abbreviations=load_abbreviations(bundled("abbreviations.tsv")),
        )
