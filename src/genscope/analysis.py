"""The analysis pipeline: recipes for the five hypothesis blocks.

``run_analysis`` reads a corpus in one pass: it partitions each tweet by
group, attaches a genericity decision (trained model or rule annotator)
and a sentiment label to every single-group tweet, keeps those as
per-group columns, and assembles a report dictionary in which every
statistic sits next to the counts or sample sizes it was computed from.
``ingest`` hands the tweets it accepts over in blocks, the pass's one
batch: each of those steps runs over a whole block before the next
starts, a block's kept tweets are scored by one model call, and every
tweet's partition bucket is kept as one byte, counted once at the end.
``recompute_check`` rebuilds the H1/H3/H4 blocks from their counts and
checks every other statistic against the numbers beside it, and
``reproduce_published`` rebuilds the same blocks from the published
counts for the ``reproduce`` subcommand's checks.

The pass runs on every usable CPU. ``parts.byte_ranges`` cuts a large
corpus file into one byte range per CPU, each ending after a newline, and
each range after the first goes through the same blocks and steps in a
forked child process (``parts.forked``), while this process reads the
first. A child leaves the duplicate-id check to ``ingest`` and sends one
result: its records, its buckets and its columns. ``ingest`` judges the
children's records in file order after its own range, and each range is
merged as soon as its records are judged: the buckets and rows of the
records it rejects are dropped, and the rest are appended in file order,
so the report is byte for byte that of one process.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .base import check_threshold
from .classifier import (
    bow_matrix,
    load_model,
    predict_score,
    tokenize,
    vectorize_bow,  # unused here; the benchmark tracer wraps it
)
from .corpus import (
    BUCKETS,
    GROUPS,
    PartRecords,
    compile_terms,
    ingest,
    lang_matches,
    load_group_lexicon,
    load_query,
    partition,
    read_part,
)
from .errors import InputError, SchemaError, read_lines
from .parts import byte_ranges, forked
from .sentiment import (
    SENTIMENTS,
    SentimentProvider,
    load_external_labels,
    load_valence_lexicon,
)
from .stats import (
    ContingencyTable,
    chi_square_gof,
    chi_square_independence,
    chi_square_sf,
    kruskal_wallis,
    mann_whitney_u,
    odds_ratio,
    two_sided_p,
)

logger = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 0.02
DEFAULT_ALPHA = 0.05
# the row order of the H4 sentiment x group table
H4_ROWS = ("positive", "neutral", "negative")


def _bundled(name: str):
    return resources.files("genscope.data") / name


@dataclass
class AnalysisConfig:
    corpus: str
    query: str | None = None
    group_lexicon: str | None = None
    model: str | None = None
    external_sentiment: str | None = None
    valence_lexicon: str | None = None
    out_dir: str = "reports"
    threshold: float = 0.5
    alpha: float = DEFAULT_ALPHA
    seed: int = 42
    format: str = "markdown"
    histogram_bin_width: float = DEFAULT_BIN_WIDTH

    def __post_init__(self):
        check_threshold(self.threshold)
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must be in (0, 1)")
        if self.format not in ("markdown", "csv"):
            raise InputError("format must be 'markdown' or 'csv'")
        if not _whole_bins(self.histogram_bin_width):
            raise InputError(
                f"histogram_bin_width must be in [0.001, 0.5] and divide 1 "
                f"into whole bins, not {self.histogram_bin_width!r}"
            )

    @classmethod
    def from_file(cls, path, **overrides) -> "AnalysisConfig":
        """Parse ``key = value`` lines, one per field; unknown keys are
        errors, and a field typed int or float takes a number."""
        kinds = get_type_hints(cls)
        values: dict[str, object] = {}
        for line_number, raw in enumerate(read_lines(path), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"config line {line_number}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in kinds:
                raise SchemaError(f"config line {line_number}: unknown key {key!r}")
            kind = kinds[key] if kinds[key] in (int, float) else str
            try:
                values[key] = kind(value)
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise SchemaError(
                    f"config line {line_number}: {key} must be {what}, not {value!r}"
                ) from None
        values.update({k: v for k, v in overrides.items() if v is not None})
        if "corpus" not in values:
            raise SchemaError("config must name a corpus")
        return cls(**values)


# ---------------------------------------------------------------------------
# result serialization helpers: every block carries its inputs

def _as_json(result) -> dict:
    """A stats result as a report block: its fields, less those that are
    None, with a nested result as a block and arrays and tuples as lists."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        if value is None:
            continue
        if is_dataclass(value):
            value = _as_json(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _percent(counts: dict, n: int) -> dict:
    """Each count as a percentage of ``n``; all 0.0 when ``n`` is 0."""
    return {key: (100.0 * c / n if n else 0.0) for key, c in counts.items()}


def _whole_bins(width: float) -> bool:
    """Whether ``width`` lies in [0.001, 0.5] and divides 1 into whole bins:
    a width that does not leaves a wider last bin, and a tiny one asks
    ``_bin_edges`` for an endless list."""
    return 0.001 <= width <= 0.5 and abs(1.0 / width - round(1.0 / width)) <= 1e-9


def _bin_edges(width: float) -> list[float]:
    """The left edges of the histogram bins of ``width`` over [0, 1]."""
    return [round(i * width, 10) for i in range(int(round(1.0 / width)))]


def _median(values: np.ndarray) -> float | None:
    """``np.median`` of a 1-D float array, bit for bit, or None when it is
    empty: the mean of the middle one or two values of one partition, or
    NaN when the last value, where a NaN sorts, is one. ``np.median`` does
    the same, but its NaN test imports ``numpy.ma`` into the process."""
    n = values.size
    if not n:
        return None
    half = n // 2
    kth = [half, -1] if n % 2 else [half - 1, half, -1]
    part = np.partition(values, kth)
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(part[kth[0]:half + 1].mean())


def _histogram(scores, bin_width: float) -> list[list[float]]:
    """(bin left edge, count) rows over [0, 1]; the last bin includes 1.0.

    A score bins against the emitted edges themselves, so a score equal
    to an edge lands in that edge's bin (``int(s / bin_width)`` puts 0.58
    at width 0.02 one bin low).
    """
    edges = _bin_edges(bin_width)
    bins = np.searchsorted(edges, scores, side="right") - 1
    counts = np.bincount(np.maximum(bins, 0), minlength=len(edges))
    return [[edge, count] for edge, count in zip(edges, counts.tolist())]


# ---------------------------------------------------------------------------
# the single pass: ingest hands the tweets it accepts over in blocks, the
# pass's one batch, and each block goes through the stages in turn, each
# stage over the whole block: every accepted tweet is lexed once, bucketed,
# scored and labelled, and only its bucket byte and numbers outlive its
# block; a later byte range of the corpus goes through the same step in a
# child process, whose result is merged once ingest has judged its records


def load_bow_model(path):
    """The trained model at ``path``, which must carry the vocabulary that
    texts are scored through."""
    model = load_model(path)
    if model.vocab is None:
        raise InputError(f"{path}: need a bag-of-words model with a [vocab] section")
    return model


def score_tokens(model, token_lists) -> list[float]:
    """The model's score of each token list, from one ``predict_score``
    call over their bag-of-words rows. A row's score has the same bits
    whatever other rows it is scored with."""
    return predict_score(model, bow_matrix(token_lists, model.vocab)).tolist()


class _Columns:
    """One group's analysed tweets in corpus order, one typed array per
    field, after Arrow's columnar layout: a score, a sentiment code (an
    index into ``SENTIMENTS``), and the like and retweet counts as the
    floats the rank tests read them as. ``view`` reads a field as a numpy
    array over the same memory, once the appends are done."""

    def __init__(self):
        self.scores = array("d")
        self.sentiments = array("b")
        self.likes = array("d")
        self.retweets = array("d")

    def view(self, name: str) -> np.ndarray:
        return np.asarray(getattr(self, name))

    def generic(self, threshold: float) -> np.ndarray:
        return self.view("scores") >= threshold


# each bucket's one-byte code: its index in BUCKETS, whose first are GROUPS
_BUCKET_CODES = {bucket: i for i, bucket in enumerate(BUCKETS)}


class _Pipeline:
    """The single pass's step, with everything it needs: the compiled query
    terms, the annotator or model, and the sentiment provider. ``ingest``
    hands it each block of accepted tweets, and it runs each stage over
    the whole block before the next. It keeps each handed tweet's bucket,
    as its one-byte code, and each group's columns."""

    def __init__(self, config: AnalysisConfig, query, lexicon):
        self.terms = compile_terms(query, lexicon)
        self.lang = query.lang
        self.model = self.annotator = None
        if config.model:
            self.model = load_bow_model(config.model)
        else:
            from .annotator import RuleAnnotator, normalize  # model mode never loads it

            self.annotator, self.normalize = RuleAnnotator(), normalize
        self.provider = SentimentProvider(
            external=_external_labels(config.external_sentiment),
            lexicon=load_valence_lexicon(config.valence_lexicon or None),
        )
        self.buckets = array("b")
        self.columns = {g: _Columns() for g in GROUPS}

    def __call__(self, tweets) -> None:
        """Bucket, score and label a block of tweets, in file order, one
        stage at a time: the lang test, the lex, the partition, then the
        verdicts or the one scoring call of the tweets kept in a group,
        then, for each of them, its sentiment and its column appends. The
        stages are looked up here, once per block, so a function replaced
        after the pipeline was built is the one called."""
        # a tweet whose lang fails is unmatched, unlexed
        passes = [lang_matches(t.lang, self.lang) for t in tweets] if self.lang else None
        passed = tweets if passes is None else list(compress(tweets, passes))
        if self.model is None:
            normalize, table = self.normalize, self.annotator.words
            lexed = [normalize(t.text, table) for t in passed]
            tokens = [words for words, _ in lexed]
        else:
            tokens = [tokenize(t.text) for t in passed]
        terms = self.terms
        buckets = [partition(terms, words) for words in tokens]
        codes = [_BUCKET_CODES[bucket] for bucket in buckets]
        if passes is not None:
            found = iter(codes)
            unmatched = _BUCKET_CODES["unmatched"]
            codes = [next(found) if ok else unmatched for ok in passes]
        self.buckets.extend(codes)

        columns = self.columns
        kept = [i for i, bucket in enumerate(buckets) if bucket in columns]
        if self.model is None:
            annotate = self.annotator.annotate
            scores = [1.0 if annotate(passed[i].text, lexed[i][1]).is_generic else 0.0
                      for i in kept]
        else:
            scores = score_tokens(self.model, [tokens[i] for i in kept]) if kept else []
        label = self.provider.label
        for i, score in zip(kept, scores):
            tweet, col = passed[i], columns[buckets[i]]
            col.scores.append(score)
            col.sentiments.append(SENTIMENTS.index(label(tweet.id, tokens[i]).value))
            col.likes.append(tweet.like_count)
            col.retweets.append(tweet.retweet_count)

    def run_part(self, path, query, start: int, end: int | None):
        """The same blocks over a later byte range of the corpus, in a child
        process: the range's records for ``ingest``, and, for the records
        handed on, their bucket codes and columns."""
        return read_part(path, start, end, self, query), self.buckets, self.columns

    def merge(self, records: PartRecords, buckets: array, columns: dict) -> None:
        """Take a later range's buckets and rows, less those of the records
        ``ingest`` did not keep: their ids repeat an id accepted in an
        earlier range."""
        accepted = np.frombuffer(records.kept, dtype=bool)
        buckets = np.frombuffer(buckets, dtype=np.int8)
        self.buckets.frombytes(buckets[accepted].tobytes())
        for i, g in enumerate(GROUPS):
            keep = accepted[buckets == i]
            for name, column in vars(self.columns[g]).items():
                column.frombytes(columns[g].view(name)[keep].tobytes())


def _external_labels(path) -> dict:
    if not path:
        return {}
    loaded = load_external_labels(path)
    if loaded.rejected:
        reasons = Counter(reason for _, reason in loaded.rejected)
        logger.warning(
            "%s: %d rejected line(s) skipped: %s",
            path,
            len(loaded.rejected),
            "; ".join(f"{reason} ({n})" for reason, n in reasons.most_common()),
        )
    return loaded.labels


def run_analysis(config: AnalysisConfig) -> dict:
    """Execute the full H1-H5 recipe; returns the report dictionary.

    Every side input (query, group lexicon, model, external labels,
    valence lexicon) is read before the corpus, so a bad one fails fast,
    and before any child process is forked, so each child shares them.
    """
    corpus_path = Path(config.corpus)
    query = load_query(config.query) if config.query else load_query(_bundled("default_query.txt"))
    lexicon = load_group_lexicon(config.group_lexicon or _bundled("group_lexicon.tsv"))
    missing = lexicon.missing_terms(query)
    if missing:
        raise SchemaError(f"group lexicon does not cover query terms: {missing}")

    pipeline = _Pipeline(config, query, lexicon)
    (_, end), *later = byte_ranges(corpus_path)
    with forked(partial(pipeline.run_part, corpus_path, query), later) as children:

        def received():
            # ingest starts this once its own range's last block has run, so
            # that block's error is raised before a later range's, as in one
            # read of the file; ingest judges each range's records before it
            # asks for the next, so they merge here
            for child in children:
                records, buckets, columns = child.receive()
                yield records
                pipeline.merge(records, buckets, columns)

        report_ingest = ingest(corpus_path, pipeline, query, end, received())
    columns = pipeline.columns
    buckets = np.bincount(np.frombuffer(pipeline.buckets, dtype=np.int8), minlength=len(BUCKETS))

    report: dict = {
        "provenance": {
            "tool_version": __version__,
            "corpus": str(corpus_path),
            "corpus_sha256": report_ingest.sha256,
            "mode": "model" if config.model else "annotator",
            "threshold": config.threshold,
            "alpha": config.alpha,
            "seed": config.seed,
            "histogram_bin_width": config.histogram_bin_width,
            "statistics": "asymptotic two-tailed; Mann-Whitney without continuity "
            "correction; Kruskal-Wallis tie-corrected; Dunn post-hoc with "
            "Bonferroni adjustment",
        },
        "ingest": {
            "accepted": report_ingest.accepted_count,
            "rejected": report_ingest.rejected_count,
        },
        "partition": dict(zip(BUCKETS, buckets.tolist())),
    }

    tally = Counter(
        (g, score >= config.threshold, SENTIMENTS[code])
        for g in GROUPS
        for score, code in zip(columns[g].scores, columns[g].sentiments)
    )
    report["descriptives"] = _descriptives(columns, tally, config)
    report["h1"] = _h1_block(_count(tally, generic=True), _count(tally, generic=False))
    report["h2"] = _h2_block(columns, config.threshold)
    report["h3"] = _h3_block(
        {
            g: {
                "generic": _count(tally, group=g, generic=True),
                "non_generic": _count(tally, group=g, generic=False),
            }
            for g in GROUPS
        }
    )
    report["h4"] = _h4_block([[tally[g, True, v] for g in GROUPS] for v in H4_ROWS])
    report["h5"] = _h5_block(columns, config.threshold)
    return report


def _count(tally: Counter, group=None, generic=None, sentiment=None) -> int:
    """The tweets of a ``(group, generic, sentiment)`` tally that match every
    field given; a field left at None is summed over."""
    return sum(
        n
        for (g, gen, v), n in tally.items()
        if group in (None, g) and generic in (None, gen) and sentiment in (None, v)
    )


def _descriptives(columns: dict, tally: Counter, config: AnalysisConfig) -> dict:
    n = sum(tally.values())
    group_counts = {g: _count(tally, group=g) for g in GROUPS}
    sentiment_counts = {v: _count(tally, sentiment=v) for v in SENTIMENTS}
    hists = {
        "overall": _histogram(
            np.concatenate([columns[g].view("scores") for g in GROUPS]),
            config.histogram_bin_width,
        )
    }
    medians = {}
    for g in GROUPS:
        scores = columns[g].view("scores")
        hists[g] = _histogram(scores, config.histogram_bin_width)
        generic_scores = scores[columns[g].generic(config.threshold)]
        medians[g] = {
            "all": _median(scores),
            "generic": _median(generic_scores),
        }
    return {
        "analyzed_tweets": n,
        "group_counts": group_counts,
        "group_percent": _percent(group_counts, n),
        "sentiment_counts": sentiment_counts,
        "sentiment_percent": _percent(sentiment_counts, n),
        "generic_count": _count(tally, generic=True),
        "score_histograms": hists,
        "score_medians": medians,
    }


def _h1_block(n_generic: int, n_other: int) -> dict:
    if n_generic + n_other == 0:
        return {"skipped": "empty corpus after partition"}
    result = chi_square_gof([n_generic, n_other])
    return {
        "counts": {"generic": n_generic, "non_generic": n_other},
        "test": _as_json(result),
    }


def _h2_block(columns: dict, threshold: float) -> dict:
    """Mann-Whitney tests of generic against non-generic tweets' likes and
    retweets, each sample group-major in ``GROUPS`` order."""
    generic = [columns[g].generic(threshold) for g in GROUPS]
    if not any(m.any() for m in generic) or all(m.all() for m in generic):
        return {"skipped": "empty generic stratum"}
    block = {}
    for metric in ("likes", "retweets"):
        values = [columns[g].view(metric) for g in GROUPS]
        a = np.concatenate([v[m] for v, m in zip(values, generic)])
        b = np.concatenate([v[~m] for v, m in zip(values, generic)])
        block[metric] = _as_json(mann_whitney_u(a, b))
    return block


def _pairwise_2x2(counts: dict, pairs, columns: tuple[str, str]) -> dict:
    """A chi-square and odds-ratio block, named ``a_vs_b``, for each pair of
    groups in ``counts`` (``{group: {column: n}}``)."""
    blocks = {}
    for a, b in pairs:
        name = f"{a}_vs_{b}"
        if sum(counts[a].values()) == 0 or sum(counts[b].values()) == 0:
            blocks[name] = {"skipped": "empty group"}
            continue
        cells = np.array([[counts[g][c] for c in columns] for g in (a, b)])
        if np.any(cells.sum(axis=0) == 0) or np.any(cells.sum(axis=1) == 0):
            blocks[name] = {
                "rows": [a, b],
                "columns": list(columns),
                "cells": cells.tolist(),
                "skipped": "zero marginal",
            }
            continue
        table = ContingencyTable(cells)
        orr = odds_ratio(cells[0, 0], cells[0, 1], cells[1, 0], cells[1, 1])
        blocks[name] = {
            "rows": [a, b],
            "columns": list(columns),
            "chi_square": _as_json(chi_square_independence(table)),
            "odds_ratio": _as_json(orr),
        }
    return blocks


def _h3_block(counts: dict) -> dict:
    """H3 from ``{group: {"generic": n, "non_generic": n}}``."""
    generic = {g: c["generic"] for g, c in counts.items()}
    block = {
        "group_generic_counts": counts,
        "generic_share_of_total": _percent(generic, sum(generic.values())),
        "generic_proportion_within_group": {
            g: (
                100.0 * c["generic"] / (c["generic"] + c["non_generic"])
                if (c["generic"] + c["non_generic"])
                else 0.0
            )
            for g, c in counts.items()
        },
    }
    pairs = (("political", "gender"), ("political", "ethnic"))
    block.update(_pairwise_2x2(counts, pairs, ("generic", "non_generic")))
    return block


def _h4_block(cells) -> dict:
    """H4 from the generic tweets' sentiment x group counts, rows
    ``H4_ROWS`` and columns ``GROUPS``."""
    cells = np.array(cells)
    if not cells.any():
        return {"skipped": "empty generic stratum"}
    block: dict = {
        "sentiment_by_group": {
            "rows": list(H4_ROWS),
            "columns": list(GROUPS),
            "cells": cells.tolist(),
        }
    }
    if np.any(cells.sum(axis=0) == 0) or np.any(cells.sum(axis=1) == 0):
        block["omnibus"] = {"skipped": "zero sentiment or group marginal"}
    else:
        table = ContingencyTable(cells)
        block["omnibus"] = _as_json(chi_square_independence(table))

    rows = dict(zip(H4_ROWS, block["sentiment_by_group"]["cells"]))
    negative_rest = {
        g: {
            "negative": rows["negative"][j],
            "neutral_or_positive": rows["positive"][j] + rows["neutral"][j],
        }
        for j, g in enumerate(GROUPS)
    }
    block["negative_vs_rest_counts"] = negative_rest
    pairs = (("political", "gender"), ("political", "ethnic"), ("gender", "ethnic"))
    block.update(_pairwise_2x2(negative_rest, pairs, ("negative", "neutral_or_positive")))
    return block


def _h5_block(columns: dict, threshold: float) -> dict:
    """Kruskal-Wallis tests across the groups of the generic tweets' likes
    and retweets, and of the generic negative tweets'."""
    generic = {g: columns[g].generic(threshold) for g in GROUPS}
    negative = SENTIMENTS.index("negative")
    block: dict = {}
    for subset_name, masks in (
        ("generic", generic),
        (
            "generic_negative",
            {g: generic[g] & (columns[g].view("sentiments") == negative) for g in GROUPS},
        ),
    ):
        if not all(masks[g].any() for g in GROUPS):
            block[subset_name] = {
                "skipped": "empty generic stratum in at least one group"
            }
            continue
        sub: dict = {}
        for metric in ("likes", "retweets"):
            samples = [columns[g].view(metric)[masks[g]] for g in GROUPS]
            result = _as_json(kruskal_wallis(samples))
            result["groups"] = list(GROUPS)
            if "posthoc" in result:
                result["posthoc"]["adjustment"] = "bonferroni"
            sub[metric] = result
        block[subset_name] = sub
    return block


# ---------------------------------------------------------------------------
# recomputability self-check

# floats agree to this relative tolerance: libm's last bits can differ
# between hosts
_REL_TOL = 1e-9


def _first_difference(reported, rebuilt, path: str) -> str | None:
    """Where ``reported`` first differs from ``rebuilt``, as ``"path:
    reported x, recomputed y"`` with the dotted path of the differing value,
    or None where they agree. Objects need the same keys and lists the same
    length; a float agrees to ``_REL_TOL``, anything else only if it is
    equal and of the same type (``True`` is no ``1``)."""
    if isinstance(rebuilt, (dict, list)):
        keys = _keys(rebuilt)
        if type(reported) is type(rebuilt) and _keys(reported) == keys:
            found = (_first_difference(reported[k], rebuilt[k], f"{path}.{k}") for k in keys)
            return next((f for f in found if f), None)
        agree = False
    elif isinstance(rebuilt, float) and type(reported) in (int, float):
        agree = math.isclose(reported, rebuilt, rel_tol=_REL_TOL)
    else:
        agree = type(reported) is type(rebuilt) and reported == rebuilt
    return None if agree else f"{path}: reported {reported!r:.80}, recomputed {rebuilt!r:.80}"


def _keys(node):
    return node.keys() if isinstance(node, dict) else range(len(node))


def recompute_check(report: dict) -> list[str]:
    """Check a report against itself. The H1, H3 and H4 blocks are rebuilt
    from their counts with the builders ``run_analysis`` uses; the other
    statistics are recomputed from the numbers beside them; and counts in
    different blocks must reconcile.

    Returns one ``"path: reported x, recomputed y"`` line per failed check,
    naming the first dotted path where the two differ (``*`` stands for
    every index); empty means the report is consistent. What needs the raw
    samples is left out: the score medians, the Mann-Whitney z under ties
    and the Kruskal-Wallis H, beyond the identities that tie them to the
    reported ranks and sizes.
    """
    problems: list[str] = []

    def check(path: str, reported, recomputed) -> None:
        found = _first_difference(reported, recomputed, path)
        if found:
            problems.append(found)

    desc = report["descriptives"]
    n, generic, group_counts = desc["analyzed_tweets"], desc["generic_count"], desc["group_counts"]
    h3_counts = report["h3"]["group_generic_counts"]
    h4 = report["h4"]
    # a skipped H4 had no generic tweet: its table is all zeros
    h4_cells = h4["sentiment_by_group"]["cells"] if "sentiment_by_group" in h4 else [
        [0] * len(GROUPS) for _ in H4_ROWS
    ]
    width = report["provenance"]["histogram_bin_width"]
    edges = _bin_edges(width) if _whole_bins(width) else []
    if not edges:
        problems.append(f"provenance.histogram_bin_width: {width!r} makes no whole bins")

    for path, names, expected in (
        ("partition", report["partition"], BUCKETS),
        ("descriptives.group_counts", group_counts, GROUPS),
        ("descriptives.sentiment_counts", desc["sentiment_counts"], SENTIMENTS),
        ("descriptives.score_histograms", desc["score_histograms"], ("overall", *GROUPS)),
    ):
        check(path, sorted(names), sorted(expected))
    check("ingest.accepted", report["ingest"]["accepted"], sum(report["partition"].values()))
    check("descriptives.analyzed_tweets", n, sum(group_counts.values()))
    check("descriptives.group_percent", desc["group_percent"], _percent(group_counts, n))
    check("descriptives.sentiment_counts", sum(desc["sentiment_counts"].values()), n)
    check("descriptives.sentiment_percent", desc["sentiment_percent"],
          _percent(desc["sentiment_counts"], n))
    for name, rows in desc["score_histograms"].items():
        at = f"descriptives.score_histograms.{name}"
        check(at, sum(count for _, count in rows), n if name == "overall" else group_counts[name])
        check(at, [edge for edge, _ in rows], edges)

    check("h1", report["h1"], _h1_block(generic, n - generic))

    h2 = report["h2"]
    for metric in () if "skipped" in h2 else ("likes", "retweets"):
        res, at = h2[metric], f"h2.{metric}"
        n1, n2 = res["n1"], res["n2"]
        check(f"{at}.n1", n1, generic)
        check(f"{at}.n2", n2, n - generic)
        check(f"{at}.u2", res["u2"], n1 * n2 - res["u1"])
        check(f"{at}.mean_rank_a", res["mean_rank_a"], (res["u1"] + n1 * (n1 + 1) / 2) / n1)
        check(f"{at}.mean_rank_b", res["mean_rank_b"], (res["u2"] + n2 * (n2 + 1) / 2) / n2)
        check(f"{at}.p", res["p"], two_sided_p(res["z"]))
        check(f"{at}.r", res["r"], abs(res["z"]) / math.sqrt(n1 + n2))

    for g in GROUPS:
        c = h3_counts[g]
        check(f"h3.group_generic_counts.{g}", c["generic"] + c["non_generic"], group_counts[g])
    check("h3", report["h3"], _h3_block(h3_counts))
    for j, g in enumerate(GROUPS):
        check(f"h4.sentiment_by_group.cells.*.{j}", sum(row[j] for row in h4_cells),
              h3_counts[g]["generic"])
    check("h4", h4, _h4_block(h4_cells))

    k = len(GROUPS)
    n_pairs = k * (k - 1) // 2  # Dunn's Bonferroni factor
    sizes = {
        "generic": [h3_counts[g]["generic"] for g in GROUPS],
        "generic_negative": h4_cells[H4_ROWS.index("negative")],
    }
    for subset, expected_sizes in sizes.items():
        sub = report["h5"][subset]
        for metric in () if "skipped" in sub else ("likes", "retweets"):
            res, at = sub[metric], f"h5.{subset}.{metric}"
            h, group_sizes = res["h"], res["group_sizes"]
            big_n = sum(group_sizes)
            check(f"{at}.groups", res["groups"], list(GROUPS))
            check(f"{at}.df", res["df"], k - 1)
            check(f"{at}.group_sizes", group_sizes, expected_sizes)
            check(f"{at}.p", res["p"], chi_square_sf(max(h, 0.0), k - 1))
            check(f"{at}.epsilon2", res["epsilon2"], h / (big_n - 1))
            check(f"{at}.mean_ranks", sum(s * r for s, r in zip(group_sizes, res["mean_ranks"])),
                  big_n * (big_n + 1) / 2)
            if "posthoc" in res:
                z = res["posthoc"]["z"]
                check(f"{at}.posthoc.adjustment", res["posthoc"]["adjustment"], "bonferroni")
                check(f"{at}.posthoc.z", z, [[-zji for zji in column] for column in zip(*z)])
                check(f"{at}.posthoc.p", res["posthoc"]["p"],
                      [[min(1.0, two_sided_p(zij) * n_pairs) for zij in row] for row in z])
    return problems


# ---------------------------------------------------------------------------
# published-count reproduction (the `reproduce` subcommand)

@dataclass
class Check:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: computed {self.computed:.6g}, "
            f"published {self.expected:.6g} (tolerance {self.tolerance:g})"
        )


@dataclass
class ReproductionReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# a count row (h1.*, h3.*, h4.*) is a whole number from 0 to MAX_COUNT, so
# that the int64 products inside an odds ratio cannot overflow
MAX_COUNT = 10**9
# the sample sizes the effect-size identities divide by sqrt(N) or N - 1
_MIN_N = {"h2.n": 1, "h5.n": 2}

_REQUIRED_ROWS = [
    "h1.generic", "h1.non_generic",
    *(f"h3.{g}.{c}" for g in GROUPS for c in ("generic", "non_generic")),
    *(f"h4.{v}.{g}" for v in H4_ROWS for g in GROUPS),
    "h2.n", "h2.z_likes", "h2.z_retweets",
    "h5.n", "h5.h_likes", "h5.h_retweets",
]

# (check, key path into the h1/h3/h4 blocks, published value, tolerance)
_TABLE_CHECKS = [
    ("h1 gof chi2", "h1.test.chi2", 327051.32, 1.0),
    ("h1 gof p < 1e-10", "h1.test.p", 0.0, 0.0),
    ("h3 political-gender chi2", "h3.political_vs_gender.chi_square.chi2", 767.32, 1.0),
    ("h3 political-gender phi", "h3.political_vs_gender.chi_square.phi", 0.030, 0.002),
    ("h3 political-gender OR", "h3.political_vs_gender.odds_ratio.odds_ratio", 1.21, 0.005),
    ("h3 political-gender CI low", "h3.political_vs_gender.odds_ratio.ci_low", 1.19, 0.01),
    ("h3 political-gender CI high", "h3.political_vs_gender.odds_ratio.ci_high", 1.23, 0.01),
    ("h3 political-ethnic chi2", "h3.political_vs_ethnic.chi_square.chi2", 6824.62, 2.0),
    ("h3 political-ethnic OR", "h3.political_vs_ethnic.odds_ratio.odds_ratio", 0.63, 0.005),
    ("h4 omnibus chi2", "h4.omnibus.chi2", 23019.12, 2.0),
    ("h4 omnibus V", "h4.omnibus.cramers_v", 0.22, 0.005),
    ("h4 political-gender chi2", "h4.political_vs_gender.chi_square.chi2", 12894.84, 2.0),
    ("h4 political-gender phi", "h4.political_vs_gender.chi_square.phi", 0.27, 0.005),
    ("h4 political-gender OR", "h4.political_vs_gender.odds_ratio.odds_ratio", 4.12, 0.02),
    ("h4 political-gender CI low", "h4.political_vs_gender.odds_ratio.ci_low", 4.01, 0.02),
    ("h4 political-gender CI high", "h4.political_vs_gender.odds_ratio.ci_high", 4.22, 0.02),
    ("h4 political-ethnic chi2", "h4.political_vs_ethnic.chi_square.chi2", 1568.65, 2.0),
    ("h4 political-ethnic OR", "h4.political_vs_ethnic.odds_ratio.odds_ratio", 1.55, 0.01),
    ("h4 gender-ethnic chi2", "h4.gender_vs_ethnic.chi_square.chi2", 4763.70, 2.0),
    ("h4 gender-ethnic OR", "h4.gender_vs_ethnic.odds_ratio.odds_ratio", 0.38, 0.005),
]


def load_published_tables(path=None) -> dict[str, float]:
    """Read the key,value CSV of published counts.

    Every value is a finite number; count rows are whole numbers from 0 to
    ``MAX_COUNT``, and ``h2.n``/``h5.n`` are at least 1/2.
    """
    path = Path(path) if path else _bundled("published_tables.csv")
    values: dict[str, float] = {}
    for line_number, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower() == "key,value":
            continue
        key, _, value = line.partition(",")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise SchemaError(f"tables line {line_number}: expected 'key,value'")
        try:
            number = float(value)
        except ValueError:
            raise SchemaError(
                f"tables line {line_number}: {key}: {value!r} is not a number"
            ) from None
        if not math.isfinite(number):
            raise SchemaError(f"tables line {line_number}: {key}: {value!r} is not finite")
        if key.startswith(("h1.", "h3.", "h4.")) and not (
            number.is_integer() and 0 <= number <= MAX_COUNT
        ):
            raise SchemaError(
                f"tables line {line_number}: {key}: {value!r} is not a whole "
                f"number from 0 to {MAX_COUNT}"
            )
        if number < _MIN_N.get(key, -math.inf):
            raise SchemaError(
                f"tables line {line_number}: {key}: {value!r} is below {_MIN_N[key]}"
            )
        values[key] = number
    missing = [k for k in _REQUIRED_ROWS if k not in values]
    if missing:
        raise SchemaError(f"tables file is missing required rows: {missing}")
    return values


def _lookup(blocks: dict, path: str) -> float:
    """The number at dotted ``path``, or nan where a builder skipped the block."""
    node = blocks
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return math.nan
        node = node[key]
    return float(node)


def reproduce_published(path=None) -> ReproductionReport:
    """Rebuild the H1/H3/H4 blocks from the published counts with the
    builders ``run_analysis`` uses, and check them against the published
    statistics."""
    t = load_published_tables(path)
    n = {key: int(value) for key, value in t.items() if key.startswith(("h1.", "h3.", "h4."))}
    blocks = {
        "h1": _h1_block(n["h1.generic"], n["h1.non_generic"]),
        "h3": _h3_block(
            {g: {c: n[f"h3.{g}.{c}"] for c in ("generic", "non_generic")} for g in GROUPS}
        ),
        "h4": _h4_block([[n[f"h4.{v}.{g}"] for g in GROUPS] for v in H4_ROWS]),
    }
    rep = ReproductionReport()
    for name, key_path, published, tolerance in _TABLE_CHECKS:
        computed = _lookup(blocks, key_path)
        if key_path.endswith(".p"):  # published only as "p < 1e-10"; 0 means below
            computed = computed if math.isnan(computed) else float(computed >= 1e-10)
        rep.checks.append(Check(name, computed, published, tolerance))

    # effect-size identities from reported z / H and N
    n2, n5 = t["h2.n"], t["h5.n"]
    rep.checks += [
        Check("h2 r (likes)", abs(t["h2.z_likes"]) / math.sqrt(n2), 0.0113, 0.0005),
        Check("h2 r (retweets)", abs(t["h2.z_retweets"]) / math.sqrt(n2), 0.0234, 0.0005),
        Check("h5 eps2 (likes)", t["h5.h_likes"] / (n5 - 1), 0.00949, 0.0005),
        Check("h5 eps2 (retweets)", t["h5.h_retweets"] / (n5 - 1), 0.00823, 0.0005),
    ]
    return rep
