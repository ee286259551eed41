"""Rule-based social-generics annotation."""

from .lexicons import RuleLexicons, load_wordlist
from .normalize import WordTable, load_abbreviations, normalize
from .rules import (
    GENERIC,
    NON_GENERIC,
    AnnotatorVerdict,
    RuleAnnotator,
)

__all__ = [
    "RuleLexicons",
    "load_wordlist",
    "WordTable",
    "load_abbreviations",
    "normalize",
    "GENERIC",
    "NON_GENERIC",
    "AnnotatorVerdict",
    "RuleAnnotator",
]
