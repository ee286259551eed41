"""Three-way sentiment, via external labels or the bundled valence lexicon.

External labels (one JSON object per line with ``id`` and ``sentiment``)
always take precedence; the lexicon scorer only backfills tweets without
one, so the transformer-based provider stays swappable without touching
the pipeline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .classifier.features import tokenize  # unused here; the benchmark tracer wraps it
from .corpus.records import parse_json_line
from .errors import InputError, Lines, SchemaError, bundled, content_lines

logger = logging.getLogger(__name__)

NEGATIVE = "negative"
NEUTRAL = "neutral"
POSITIVE = "positive"
SENTIMENTS = (NEGATIVE, NEUTRAL, POSITIVE)
SOURCES = ("external", "lexicon")

# a mean valence within +-NEUTRAL_BAND is neutral; a negation flips the
# valence of the NEGATION_WINDOW tokens after it
NEUTRAL_BAND = 0.05
NEGATION_WINDOW = 3


@dataclass(frozen=True)
class SentimentLabel:
    value: str  # negative | neutral | positive
    source: str  # external | lexicon

    def __post_init__(self):
        if self.value not in SENTIMENTS:
            raise InputError(f"unknown sentiment {self.value!r}")
        if self.source not in SOURCES:
            raise InputError(f"unknown sentiment source {self.source!r}")


# every label the module hands out is one of these six, so a loaded or
# scored label is a shared reference, not an object per tweet
LABELS = {
    (value, source): SentimentLabel(value, source) for value in SENTIMENTS for source in SOURCES
}


@dataclass
class ValenceLexicon:
    valences: dict[str, float]
    negations: frozenset[str]

    def __post_init__(self):
        bad = {t: v for t, v in self.valences.items() if not -1.0 <= v <= 1.0}
        if bad:
            raise SchemaError(f"valences outside [-1, 1]: {sorted(bad)}")


def load_valence_lexicon(path=None) -> ValenceLexicon:
    """``token<TAB>valence`` per line; negation tokens are prefixed ``!``."""
    if path is None:
        path = bundled("valence_lexicon.tsv")
    valences: dict[str, float] = {}
    negations: set[str] = set()
    for line_number, line in content_lines(path):
        if line.startswith("!"):
            negations.add(line[1:].strip().lower())
            continue
        token, _, value = line.partition("\t")
        if not token or not value:
            raise SchemaError(f"{path}:{line_number}: expected 'token<TAB>valence'")
        try:
            valences[token.strip().lower()] = float(value)
        except ValueError:
            raise SchemaError(f"{path}:{line_number}: bad valence {value!r}") from None
    try:
        return ValenceLexicon(valences=valences, negations=frozenset(negations))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def lexicon_score(tokens: list[str], lexicon: ValenceLexicon) -> SentimentLabel:
    """Mean matched valence of a text's word tokens (``tokenize``'s
    output), sign-flipped inside a negation window.

    positive if the mean exceeds the neutral band, negative below it,
    neutral otherwise (including texts with no lexicon tokens at all).
    """
    flip_until = -1
    total = 0.0
    hits = 0
    for i, token in enumerate(tokens):
        if token in lexicon.negations:
            flip_until = i + NEGATION_WINDOW
            continue
        valence = lexicon.valences.get(token)
        if valence is None:
            continue
        if i <= flip_until:
            valence = -valence
        total += valence
        hits += 1
    score = total / hits if hits else 0.0
    if score > NEUTRAL_BAND:
        value = POSITIVE
    elif score < -NEUTRAL_BAND:
        value = NEGATIVE
    else:
        value = NEUTRAL
    return LABELS[value, "lexicon"]


@dataclass
class ExternalLabelReport:
    labels: dict[str, SentimentLabel] = field(default_factory=dict)
    rejected: list[tuple[int, str]] = field(default_factory=list)


def load_external_labels(path) -> ExternalLabelReport:
    """JSON Lines of ``{"id": ..., "sentiment": ...}``; bad lines are
    collected per line, duplicates rejected."""
    report = ExternalLabelReport()
    for line_number, line in Lines(path).numbered():
        try:
            obj = parse_json_line(line)
        except ValueError as exc:
            report.rejected.append((line_number, str(exc)))
            continue
        if not isinstance(obj, dict):
            report.rejected.append((line_number, "record must be a JSON object"))
            continue
        tweet_id = obj.get("id")
        sentiment = obj.get("sentiment")
        if not isinstance(tweet_id, str) or not tweet_id:
            report.rejected.append((line_number, "missing id"))
            continue
        if sentiment not in SENTIMENTS:
            report.rejected.append((line_number, f"unknown sentiment {sentiment!r}"))
            continue
        if tweet_id in report.labels:
            report.rejected.append((line_number, "duplicate id"))
            continue
        report.labels[tweet_id] = LABELS[sentiment, "external"]
    return report


class SentimentProvider:
    """External labels first, lexicon fallback; every tweet gets a label."""

    def __init__(
        self,
        external: dict[str, SentimentLabel] | None = None,
        lexicon: ValenceLexicon | None = None,
    ):
        self.external = external or {}
        self.lexicon = lexicon or load_valence_lexicon()

    def label(self, tweet_id: str, tokens: list[str]) -> SentimentLabel:
        """The external label of ``tweet_id``, else the lexicon's label of
        the tweet's word tokens."""
        hit = self.external.get(tweet_id)
        if hit is not None:
            return hit
        return lexicon_score(tokens, self.lexicon)
