"""The analysis pipeline: recipes for the five hypothesis blocks.

``run_analysis`` reads a corpus in one pass: it partitions each tweet by
group, attaches a genericity decision (trained model or rule annotator)
and a sentiment label to every single-group tweet, keeps those as one
table of rows in corpus order, and assembles a report dictionary in which
every statistic sits next to the counts or sample sizes it was computed
from. A row's group is its tweet's bucket byte; every count is a margin of
one ``(group, generic, sentiment)`` tally of the rows.
``ingest`` hands the tweets it accepts over in blocks, the pass's one
batch: each of those steps runs over a whole block before the next
starts, a block's kept tweets are scored by one model call, and every
tweet's partition bucket is kept as one byte, counted once at the end.
``recompute_check`` rebuilds the H1/H3/H4 blocks from their counts and
the H2/H5 blocks from their tests' sizes, rank sums and tie terms, and
``reproduce_published`` rebuilds the same blocks from the published
counts for the ``reproduce`` subcommand's checks.

The pass runs on every usable CPU. ``parts.byte_ranges`` cuts a large
corpus file into one byte range per CPU, each ending after a newline, and
each range after the first goes through the same blocks and steps in a
forked child process (``parts.forked``), while this process reads the
first. A child leaves the duplicate-id check to ``ingest`` and sends one
result: its records, its buckets and its rows. ``ingest`` judges the
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
from functools import partial, reduce
from operator import getitem, itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .base import check_threshold
from .classifier import (
    load_bow_model,
    load_model,  # unused here; the benchmark tracer wraps it
    predict_score,  # unused here; the benchmark tracer wraps it
    score_tokens,
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
    partition,
    read_part,
)
from .errors import InputError, Lines, SchemaError, bundled, content_lines
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
    kruskal_wallis,
    kruskal_wallis_from_ranks,
    mann_whitney_from_u,
    mann_whitney_u,
    odds_ratio,
)

logger = logging.getLogger(__name__)

DEFAULT_BIN_WIDTH = 0.02
DEFAULT_ALPHA = 0.05
# the row order of the H4 sentiment x group table
H4_ROWS = ("positive", "neutral", "negative")


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
        for line_number, line in content_lines(path):
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


# the table of analysed tweets, one typed array per field in corpus order,
# after Arrow's columnar layout: a score, a sentiment code (an index into
# SENTIMENTS), and the like and retweet counts as the floats the rank tests
# read them as; a row's group is its tweet's bucket code
_FIELDS = {"scores": "d", "sentiments": "b", "likes": "d", "retweets": "d"}

# each bucket's one-byte code: its index in BUCKETS, whose first are GROUPS
_BUCKET_CODES = {bucket: i for i, bucket in enumerate(BUCKETS)}


class _Pipeline:
    """The single pass's step, with everything it needs: the compiled query
    terms, the annotator or model, and the sentiment provider. ``ingest``
    hands it each block of accepted tweets, and it runs each stage over
    the whole block before the next. It keeps each handed tweet's bucket,
    as its one-byte code, and a row of the table for each tweet kept in a
    group."""

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
        self.rows = {name: array(code) for name, code in _FIELDS.items()}

    def __call__(self, tweets) -> None:
        """Bucket, score and label a block of tweets, in file order, one
        stage at a time: the lang test, the lex, the partition, then the
        verdicts or the one scoring call of the tweets kept in a group,
        then, for each of them, its sentiment, and last their rows. The
        stages are looked up here, once per block, so a function replaced
        after the pipeline was built is the one called."""
        # a tweet whose lang fails is not lexed: with no words, it is unmatched
        lang = self.lang
        passes = [not lang or lang_matches(t.lang, lang) for t in tweets]
        if self.model is None:
            normalize, table = self.normalize, self.annotator.words
            lexed = [normalize(t.text, table) if ok else ([], []) for t, ok in zip(tweets, passes)]
            tokens = [words for words, _ in lexed]
        else:
            tokens = [tokenize(t.text) if ok else [] for t, ok in zip(tweets, passes)]
        terms = self.terms
        codes = [_BUCKET_CODES[partition(terms, words)] for words in tokens]
        self.buckets.extend(codes)

        kept = [i for i, code in enumerate(codes) if code < len(GROUPS)]
        if self.model is None:
            annotate = self.annotator.annotate
            scores = [1.0 if annotate(tweets[i].text, lexed[i][1]).is_generic else 0.0
                      for i in kept]
        else:
            scores = score_tokens(self.model, [tokens[i] for i in kept]) if kept else []
        rows = self.rows
        rows["scores"].extend(scores)
        rows["sentiments"].extend(
            self.provider.codes([tweets[i].id for i in kept], [tokens[i] for i in kept])
        )
        rows["likes"].extend([tweets[i].like_count for i in kept])
        rows["retweets"].extend([tweets[i].retweet_count for i in kept])

    def run_part(self, path, query, start: int, end: int | None):
        """The same blocks over a later byte range of the corpus, in a child
        process: the range's records for ``ingest``, and, for the records
        handed on, their bucket codes and rows."""
        return read_part(path, start, end, self, query), self.buckets, self.rows

    def merge(self, records: PartRecords, buckets: array, rows: dict) -> None:
        """Take a later range's buckets and rows, less those of the records
        ``ingest`` did not keep: their ids repeat an id accepted in an
        earlier range."""
        accepted = np.frombuffer(records.kept, dtype=bool)
        buckets = np.frombuffer(buckets, dtype=np.int8)
        self.buckets.frombytes(buckets[accepted].tobytes())
        keep = accepted[buckets < len(GROUPS)]
        for name, column in self.rows.items():
            column.frombytes(np.asarray(rows[name])[keep].tobytes())


def _external_labels(path):
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
    # loaded here, so that report and reproduce never compile them
    from .corpus.query import load_query
    from .parts import ANALYZE_FLOOR, byte_ranges, forked

    corpus_path = Path(config.corpus)
    query = load_query(config.query) if config.query else load_query(bundled("default_query.txt"))
    lexicon = load_group_lexicon(config.group_lexicon or bundled("group_lexicon.tsv"))
    missing = lexicon.missing_terms(query)
    if missing:
        raise SchemaError(f"group lexicon does not cover query terms: {missing}")

    pipeline = _Pipeline(config, query, lexicon)
    (_, end), *later = byte_ranges(corpus_path, ANALYZE_FLOOR)
    with forked(partial(pipeline.run_part, corpus_path, query), later) as children:

        def received():
            # ingest starts this once its own range's last block has run, so
            # that block's error is raised before a later range's, as in one
            # read of the file; ingest judges each range's records before it
            # asks for the next, so they merge here
            for child in children:
                records, buckets, rows = child.receive()
                yield records
                pipeline.merge(records, buckets, rows)

        report_ingest = ingest(corpus_path, pipeline, query, end, received())
    codes = np.frombuffer(pipeline.buckets, dtype=np.int8)
    rows = {name: np.asarray(column) for name, column in pipeline.rows.items()}
    rows["group"] = codes[codes < len(GROUPS)]  # the kept tweets' codes, in row order
    rows["generic"] = rows["scores"] >= config.threshold

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
        "partition": dict(zip(BUCKETS, np.bincount(codes, minlength=len(BUCKETS)).tolist())),
    }

    # the (group, generic, sentiment) tally, whose margins give every count
    shape = (len(GROUPS), 2, len(SENTIMENTS))
    cells = np.ravel_multi_index((rows["group"], rows["generic"], rows["sentiments"]), shape)
    tally = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
    n_other, n_generic = tally.sum(axis=(0, 2)).tolist()
    report["descriptives"] = _descriptives(rows, tally, config.histogram_bin_width)
    report["h1"] = _h1_block(n_generic, n_other)
    is_generic = rows["generic"]
    report["h2"] = _h2_block(n_generic, n_other, lambda metric: vars(
        mann_whitney_u(rows[metric][is_generic], rows[metric][~is_generic])
    ))
    report["h3"] = _h3_block(
        {
            g: {"generic": generic, "non_generic": other}
            for g, (other, generic) in zip(GROUPS, tally.sum(axis=2).tolist())
        }
    )
    h4_cells = tally[:, 1, [SENTIMENTS.index(v) for v in H4_ROWS]].T.tolist()
    report["h4"] = _h4_block(h4_cells)
    negative = rows["sentiments"] == SENTIMENTS.index("negative")
    within = {"generic": is_generic, "generic_negative": is_generic & negative}
    report["h5"] = _h5_block(
        tally[:, 1].sum(axis=1).tolist(), h4_cells, lambda subset, metric, _: vars(kruskal_wallis(
            [rows[metric][within[subset] & (rows["group"] == i)] for i in range(len(GROUPS))]
        )),
    )
    return report


def _descriptives(rows: dict, tally: np.ndarray, bin_width: float) -> dict:
    n = int(tally.sum())
    group_counts = dict(zip(GROUPS, tally.sum(axis=(1, 2)).tolist()))
    sentiment_counts = dict(zip(SENTIMENTS, tally.sum(axis=(0, 1)).tolist()))
    scores = rows["scores"]
    hists = {"overall": _histogram(scores, bin_width)}
    medians = {}
    for i, g in enumerate(GROUPS):
        in_group = rows["group"] == i
        hists[g] = _histogram(scores[in_group], bin_width)
        medians[g] = {
            "all": _median(scores[in_group]),
            "generic": _median(scores[in_group & rows["generic"]]),
        }
    return {
        "analyzed_tweets": n,
        "group_counts": group_counts,
        "group_percent": _percent(group_counts, n),
        "sentiment_counts": sentiment_counts,
        "sentiment_percent": _percent(sentiment_counts, n),
        "generic_count": int(tally[:, 1].sum()),
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


def _h2_block(n_generic: int, n_other: int, tested) -> dict:
    """Mann-Whitney tests of generic against non-generic tweets' likes and
    retweets, each rebuilt from ``tested(metric)``, the test's fields or its
    report block: its two sample sizes, generic U and tie term."""
    if not n_generic or not n_other:
        return {"skipped": "empty generic stratum"}
    stats = itemgetter("n1", "n2", "u1", "ties")
    return {m: _as_json(mann_whitney_from_u(*stats(tested(m)))) for m in ("likes", "retweets")}


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


def _h5_block(generic_sizes: list[int], h4_cells, tested) -> dict:
    """Kruskal-Wallis tests across the groups of the generic tweets' likes
    and retweets, and of the generic negative tweets' (H4's negative row),
    where a subset's group sizes are all positive. Each is rebuilt from
    ``tested(subset, metric, group_sizes)``, the test's fields or its report
    block: its group sizes, doubled rank sums and tie term."""
    stats = itemgetter("group_sizes", "rank_sums_x2", "ties")
    block: dict = {}
    for subset, group_sizes in (
        ("generic", generic_sizes),
        ("generic_negative", h4_cells[H4_ROWS.index("negative")]),
    ):
        if not all(group_sizes):
            block[subset] = {"skipped": "empty generic stratum in at least one group"}
            continue
        sub: dict = {}
        for metric in ("likes", "retweets"):
            result = _as_json(kruskal_wallis_from_ranks(*stats(tested(subset, metric, group_sizes))))
            result["groups"] = list(GROUPS)
            if "posthoc" in result:
                result["posthoc"]["adjustment"] = "bonferroni"
            sub[metric] = result
        block[subset] = sub
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


class _SkippedTest(Exception):
    """A rank test's block says it was skipped, but its samples are not
    empty."""


def recompute_check(report: dict) -> list[str]:
    """Check a report against itself. Each of the H1-H5 blocks is rebuilt
    with the builder ``run_analysis`` used: H1, H3 and H4 from their counts,
    H2 and H5 from each test's sizes, U or doubled rank sums, and tie term.
    Counts and sizes in different blocks must reconcile, and rank sums and
    tie terms must be ones that samples of those sizes can have.

    Returns one ``"path: reported x, recomputed y"`` line per failed check,
    naming the first dotted path where the two differ (``*`` stands for
    every index); empty means the report is consistent. Only the score
    medians are left out, since they need the raw scores.
    """
    problems: list[str] = []

    def check(path: str, reported, recomputed) -> None:
        found = _first_difference(reported, recomputed, path)
        if found:
            problems.append(found)

    def tested(path: str, big_n, **sizes) -> dict:
        """The rank test at ``path``, once its ``sizes`` are checked against the
        counts, any U against the range a sample of those sizes has, any rank
        sums against the ranks 1..N of its groups, and its tie term
        T = sum(t^3 - t) against those of ``big_n`` values (T one off moves z
        or H under ``_REL_TOL``). A test whose block says it was skipped
        raises ``_SkippedTest``: the counts give it samples."""
        *outer, metric = path.split(".")
        parent = reduce(getitem, outer, report)
        if "skipped" in parent:
            raise _SkippedTest(
                f"{'.'.join(outer)}: reported {parent!r:.80}, recomputed a test of its samples"
            )
        block = parent[metric]
        for key, expected in sizes.items():
            check(f"{path}.{key}", block[key], expected)
        if "u1" in block:
            u1, n1, n2 = block["u1"], sizes["n1"], sizes["n2"]
            if type(u1) not in (int, float) or not 0 <= u1 <= n1 * n2 or (2 * u1) % 1:
                problems.append(
                    f"{path}.u1: reported {u1!r:.80}, not the U of any samples of "
                    f"{n1} and {n2} values"
                )
        if "rank_sums_x2" in block:
            ranked = sum(block["group_sizes"])
            check(f"{path}.rank_sums_x2", sum(block["rank_sums_x2"]), ranked * (ranked + 1))
        ties = block["ties"]
        if type(ties) is not int or not 0 <= ties <= big_n**3 - big_n or ties % 6:
            problems.append(
                f"{path}.ties: reported {ties!r:.80}, not the tie term of any {big_n} values"
            )
        return block

    def check_tests(name: str, rebuild) -> None:
        """Check the H2 or H5 block ``name`` against ``rebuild()``."""
        try:
            check(name, report[name], rebuild())
        except _SkippedTest as exc:
            problems.append(str(exc))

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

    check_tests("h2", lambda: _h2_block(generic, n - generic, lambda metric: tested(
        f"h2.{metric}", n, n1=generic, n2=n - generic,
    )))

    for g in GROUPS:
        c = h3_counts[g]
        check(f"h3.group_generic_counts.{g}", c["generic"] + c["non_generic"], group_counts[g])
    check("h3", report["h3"], _h3_block(h3_counts))
    for j, g in enumerate(GROUPS):
        check(f"h4.sentiment_by_group.cells.*.{j}", sum(row[j] for row in h4_cells),
              h3_counts[g]["generic"])
    check("h4", h4, _h4_block(h4_cells))

    check_tests("h5", lambda: _h5_block(
        [h3_counts[g]["generic"] for g in GROUPS], h4_cells,
        lambda subset, metric, sizes: tested(f"h5.{subset}.{metric}", sum(sizes), group_sizes=sizes),
    ))
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
    path = Path(path) if path else bundled("published_tables.csv")
    values: dict[str, float] = {}
    for line_number, line in Lines(path).numbered():
        if line.startswith("#") or line.lower() == "key,value":
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
