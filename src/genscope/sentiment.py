"""Three-way sentiment, via external labels or the bundled valence lexicon.

External labels (one JSON object per line with ``id`` and ``sentiment``)
always take precedence; the lexicon scorer only backfills tweets without
one, so the transformer-based provider stays swappable without touching
the pipeline.

The labels are one read-only table, ``ExternalLabels``: an ``IdTable``
(``corpus/ids.py``) of the ids in file order, with one sentiment byte per
id, and ``analyze`` looks up a block of tweets at once. For the
benchmark's seven-byte ids the table keeps about 35 bytes per label, and
loading peaks at about 50, where a dict of str ids kept 80 to 90: the
909,558 labels of a 1.07 M-line ``perfbench/gen.py`` corpus take 31.8 MB
instead of 81.8 MB.
"""

from __future__ import annotations

import logging
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .classifier.features import tokenize  # unused here; the benchmark tracer wraps it
from .corpus.ids import IdTable
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


class ExternalLabels(Mapping):
    """Read-only external labels, tweet id to SentimentLabel, in file
    order: an IdTable of the ids and an int8 sentiment code per id, its
    index in SENTIMENTS. ``codes`` looks up a block of ids at once."""

    def __init__(self, ids: IdTable | None = None, sentiments: np.ndarray | None = None):
        self.ids = IdTable() if ids is None else ids
        self.sentiments = np.zeros(0, dtype=np.int8) if sentiments is None else sentiments

    @classmethod
    def of(cls, labels: Mapping[str, SentimentLabel]) -> "ExternalLabels":
        """``labels`` as a table."""
        if isinstance(labels, cls):
            return labels
        ids = IdTable()
        ids.extend(labels)
        codes = [SENTIMENTS.index(label.value) for label in labels.values()]
        return cls(ids, np.array(codes, dtype=np.int8))

    def codes(self, tweet_ids: list[str]) -> np.ndarray:
        """The sentiment code of each of ``tweet_ids``, or -1 for none."""
        found = self.ids.find(tweet_ids)
        codes = np.full(len(tweet_ids), -1, dtype=np.int8)
        hit = found >= 0
        codes[hit] = self.sentiments[found[hit]]
        return codes

    def __getitem__(self, tweet_id: str) -> SentimentLabel:
        code = int(self.codes([tweet_id])[0])
        if code < 0:
            raise KeyError(tweet_id)
        return LABELS[SENTIMENTS[code], "external"]

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class ExternalLabelReport:
    labels: ExternalLabels = field(default_factory=ExternalLabels)
    rejected: list[tuple[int, str]] = field(default_factory=list)


def load_external_labels(path) -> ExternalLabelReport:
    """JSON Lines of ``{"id": ..., "sentiment": ...}``; bad lines are
    collected per line, duplicates rejected. Each valid line's id goes
    straight into the table, so no object per label outlives its line;
    the repeated ids are found once the file is read, and their lines
    take their place among the rejected ones, in line order."""
    rejected = []
    # each valid line's sentiment code, and its index among the file's lines
    codes, indices = array("b"), array("q")
    lines = Lines(path)

    def valid_ids():
        # the decoder makes no subclass of dict or str, so exact type tests
        # are isinstance tests
        for line in lines:
            try:
                obj = parse_json_line(line)
            except ValueError as exc:
                rejected.append((lines.number, str(exc)))
                continue
            if type(obj) is not dict:
                rejected.append((lines.number, "record must be a JSON object"))
                continue
            tweet_id = obj.get("id")
            sentiment = obj.get("sentiment")
            if type(tweet_id) is not str or not tweet_id:
                rejected.append((lines.number, "missing id"))
                continue
            if sentiment not in SENTIMENTS:
                rejected.append((lines.number, f"unknown sentiment {sentiment!r}"))
                continue
            codes.append(SENTIMENTS.index(sentiment))
            indices.append(lines.line)
            yield tweet_id

    ids = IdTable()
    repeats = ids.extend(valid_ids())
    if repeats.any():
        first = lines.number - lines.line  # the number of the line at index 0
        rejected.extend((first + i, "duplicate id") for i in np.asarray(indices)[repeats].tolist())
        rejected.sort()
    codes = np.asarray(codes)[~repeats]
    return ExternalLabelReport(ExternalLabels(ids, codes), rejected)


class SentimentProvider:
    """External labels first, lexicon fallback; every tweet gets a label.
    The external labels, a mapping of id to label, become a table."""

    def __init__(
        self,
        external: Mapping[str, SentimentLabel] | None = None,
        lexicon: ValenceLexicon | None = None,
    ):
        self.external = ExternalLabels.of(external or {})
        self.lexicon = lexicon or load_valence_lexicon()

    def label(self, tweet_id: str, tokens: list[str]) -> SentimentLabel:
        """The external label of ``tweet_id``, else the lexicon's label of
        the tweet's word tokens."""
        hit = self.external.get(tweet_id)
        if hit is not None:
            return hit
        return lexicon_score(tokens, self.lexicon)

    def codes(self, tweet_ids: list[str], token_lists: list[list[str]]) -> list[int]:
        """``label``'s sentiment code (index in SENTIMENTS) for each tweet,
        with the external labels of all of them looked up at once."""
        lexicon = self.lexicon
        found = self.external.codes(tweet_ids).tolist() if self.external else repeat(-1)
        return [
            code if code >= 0 else SENTIMENTS.index(lexicon_score(tokens, lexicon).value)
            for code, tokens in zip(found, token_lists)
        ]
