"""Rule lexicons: the word lists the annotator's patterns consult.

All lists ship as editable data files; ``RuleLexicons.default()`` loads
the bundled ones. Closed-class function words (pronouns, prepositions,
determiners, modals) are code-level constants in the rules module since
they define the grammar of the patterns rather than tunable vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from ..errors import SchemaError
from .normalize import load_abbreviations


def load_wordlist(path) -> frozenset[str]:
    words = set()
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip().lower()
        if line:
            words.add(line)
    return frozenset(words)


def _data_path(name: str):
    return resources.files("genscope.data") / name


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
            quantifiers=load_wordlist(_data_path("quantifiers.txt")),
            group_nouns=load_wordlist(_data_path("group_nouns.txt")),
            group_modifiers=load_wordlist(_data_path("group_modifiers.txt")),
            hedge_adverbs=load_wordlist(_data_path("hedges.txt")),
            verbs=load_wordlist(_data_path("verbs.txt")),
            irregular_pasts=load_wordlist(_data_path("verbs_irregular_past.txt")),
            interjections=load_wordlist(_data_path("interjections.txt")),
            abbreviations=load_abbreviations(_data_path("abbreviations.tsv")),
        )
