"""The analysis pipeline: recipes for the five hypothesis blocks.

``run_analysis`` ingests a corpus, partitions it by group, attaches a
genericity decision (trained model or rule annotator) and a sentiment
label to every single-group tweet, and assembles a report dictionary in
which every statistic sits next to the counts or sample sizes it was
computed from. ``recompute_check`` re-derives those statistics from the
embedded inputs, and ``reproduce_published`` runs the published-count
golden checks used by the ``reproduce`` subcommand.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .annotator import RuleAnnotator
from .classifier import (
    load_model,
    predict_score,
    require_bow_vocab,
    stack_features,
    tokenize,
    vectorize_bow,
)
from .corpus import (
    GROUPS,
    PartitionedCorpus,
    ingest,
    load_group_lexicon,
    load_query,
    partition,
)
from .errors import InputError, SchemaError
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
    mann_whitney_u,
    odds_ratio,
)

DEFAULT_BIN_WIDTH = 0.02
DEFAULT_ALPHA = 0.05

_CONFIG_KEYS = {
    "corpus",
    "query",
    "group_lexicon",
    "model",
    "external_sentiment",
    "valence_lexicon",
    "out_dir",
    "threshold",
    "alpha",
    "seed",
    "format",
    "histogram_bin_width",
}


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
        if not 0.0 < self.threshold < 1.0:
            raise InputError("threshold must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must be in (0, 1)")
        if self.format not in ("markdown", "csv"):
            raise InputError("format must be 'markdown' or 'csv'")
        if not 0.0 < self.histogram_bin_width <= 0.5:
            raise InputError("histogram_bin_width must be in (0, 0.5]")

    @classmethod
    def from_file(cls, path, **overrides) -> "AnalysisConfig":
        """Parse ``key = value`` lines; unknown keys are errors."""
        values: dict[str, str] = {}
        for line_number, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"config line {line_number}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise SchemaError(f"config line {line_number}: unknown key {key!r}")
            values[key] = value.strip()
        for key in ("threshold", "alpha", "histogram_bin_width"):
            if key in values:
                values[key] = float(values[key])
        if "seed" in values:
            values["seed"] = int(values["seed"])
        values.update({k: v for k, v in overrides.items() if v is not None})
        if "corpus" not in values:
            raise SchemaError("config must name a corpus")
        return cls(**values)


# ---------------------------------------------------------------------------
# result serialization helpers: every block carries its inputs

def _chi2_dict(result) -> dict:
    out = {
        "chi2": result.chi2,
        "df": result.df,
        "p": result.p,
        "min_expected": result.min_expected,
        "low_expected_warning": result.low_expected_warning,
        "cells": np.asarray(result.cells).tolist(),
    }
    if result.phi is not None:
        out["phi"] = result.phi
    if result.cramers_v is not None:
        out["cramers_v"] = result.cramers_v
    return out


def _or_dict(result) -> dict:
    return {
        "odds_ratio": result.odds_ratio,
        "ci_low": result.ci_low,
        "ci_high": result.ci_high,
        "cells": list(result.cells),
        "correction_applied": result.correction_applied,
    }


def _mw_dict(result) -> dict:
    return {
        "u1": result.u1,
        "u2": result.u2,
        "n1": result.n1,
        "n2": result.n2,
        "mean_rank_a": result.mean_rank_a,
        "mean_rank_b": result.mean_rank_b,
        "z": result.z,
        "p": result.p,
        "r": result.r,
        "degenerate": result.degenerate,
    }


def _kw_dict(result) -> dict:
    out = {
        "h": result.h,
        "df": result.df,
        "p": result.p,
        "epsilon2": result.epsilon2,
        "mean_ranks": list(result.mean_ranks),
        "group_sizes": list(result.group_sizes),
        "degenerate": result.degenerate,
    }
    if result.posthoc is not None:
        out["posthoc"] = {
            "adjustment": result.posthoc.adjustment,
            "z": result.posthoc.z.tolist(),
            "p": result.posthoc.p.tolist(),
        }
    return out


def _histogram(scores, bin_width: float) -> list[list[float]]:
    """(bin left edge, count) rows over [0, 1]; the last bin includes 1.0.

    A score bins against the emitted edges themselves, so a score equal
    to an edge lands in that edge's bin (``int(s / bin_width)`` puts 0.58
    at width 0.02 one bin low).
    """
    n_bins = int(round(1.0 / bin_width))
    edges = [round(i * bin_width, 10) for i in range(n_bins)]
    counts = [0] * n_bins
    for s in scores:
        counts[max(bisect.bisect_right(edges, s) - 1, 0)] += 1
    return [[edge, count] for edge, count in zip(edges, counts)]


# ---------------------------------------------------------------------------

@dataclass
class ScoredTweet:
    tweet: object
    group: str
    score: float
    generic: bool
    sentiment: str


def _score_tweets(parts: PartitionedCorpus, config: AnalysisConfig) -> list[ScoredTweet]:
    model = None
    if config.model:
        model = load_model(config.model)
        require_bow_vocab(model, config.model)

    external = {}
    if config.external_sentiment:
        external = load_external_labels(config.external_sentiment).labels
    valence = (
        load_valence_lexicon(config.valence_lexicon)
        if config.valence_lexicon
        else load_valence_lexicon()
    )
    provider = SentimentProvider(external=external, lexicon=valence)

    groups = [group for group in GROUPS for _ in parts.group(group)]
    tweets = [tweet for group in GROUPS for tweet in parts.group(group)]
    if model is not None:
        rows = (vectorize_bow(tokenize(t.text), model.vocab) for t in tweets)
        scores = predict_score(model, stack_features(rows, model.dimension)).tolist()
    else:
        annotator = RuleAnnotator()
        scores = [1.0 if annotator.annotate(t.text).is_generic else 0.0 for t in tweets]
    return [
        ScoredTweet(
            tweet=tweet,
            group=group,
            score=score,
            generic=score >= config.threshold,
            sentiment=provider.label(tweet).value,
        )
        for group, tweet, score in zip(groups, tweets, scores)
    ]


def run_analysis(config: AnalysisConfig) -> dict:
    """Execute the full H1-H5 recipe; returns the report dictionary."""
    corpus_path = Path(config.corpus)
    query = load_query(config.query) if config.query else load_query(_bundled("default_query.txt"))
    lexicon = load_group_lexicon(config.group_lexicon or _bundled("group_lexicon.tsv"))
    missing = lexicon.missing_terms(query)
    if missing:
        raise SchemaError(f"group lexicon does not cover query terms: {missing}")

    report_ingest = ingest(corpus_path, query=query)
    parts = partition(report_ingest.tweets, query, lexicon)
    scored = _score_tweets(parts, config)

    report: dict = {
        "provenance": {
            "tool_version": __version__,
            "corpus": str(corpus_path),
            "corpus_sha256": hashlib.sha256(corpus_path.read_bytes()).hexdigest(),
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
        "partition": parts.counts,
    }

    report["descriptives"] = _descriptives(scored, config)
    report["h1"] = _h1_block(scored)
    report["h2"] = _h2_block(scored)
    report["h3"] = _h3_block(scored)
    report["h4"] = _h4_block(scored)
    report["h5"] = _h5_block(scored)
    return report


def _descriptives(scored: list[ScoredTweet], config: AnalysisConfig) -> dict:
    n = len(scored)
    groups = {g: [s for s in scored if s.group == g] for g in GROUPS}
    sentiment_counts = {
        v: sum(1 for s in scored if s.sentiment == v) for v in SENTIMENTS
    }
    hists = {"overall": _histogram([s.score for s in scored], config.histogram_bin_width)}
    medians = {}
    for g, members in groups.items():
        scores = [s.score for s in members]
        hists[g] = _histogram(scores, config.histogram_bin_width)
        generic_scores = [s.score for s in members if s.generic]
        medians[g] = {
            "all": float(np.median(scores)) if scores else None,
            "generic": float(np.median(generic_scores)) if generic_scores else None,
        }
    return {
        "analyzed_tweets": n,
        "group_counts": {g: len(m) for g, m in groups.items()},
        "group_percent": {
            g: (100.0 * len(m) / n if n else 0.0) for g, m in groups.items()
        },
        "sentiment_counts": sentiment_counts,
        "sentiment_percent": {
            v: (100.0 * c / n if n else 0.0) for v, c in sentiment_counts.items()
        },
        "generic_count": sum(1 for s in scored if s.generic),
        "score_histograms": hists,
        "score_medians": medians,
    }


def _h1_block(scored) -> dict:
    n_generic = sum(1 for s in scored if s.generic)
    n_other = len(scored) - n_generic
    if n_generic + n_other == 0:
        return {"skipped": "empty corpus after partition"}
    result = chi_square_gof([n_generic, n_other])
    return {
        "counts": {"generic": n_generic, "non_generic": n_other},
        "test": _chi2_dict(result),
    }


def _h2_block(scored) -> dict:
    generic = [s for s in scored if s.generic]
    other = [s for s in scored if not s.generic]
    if not generic or not other:
        return {"skipped": "empty generic stratum"}
    block = {}
    for metric, attr in (("likes", "like_count"), ("retweets", "retweet_count")):
        a = [getattr(s.tweet, attr) for s in generic]
        b = [getattr(s.tweet, attr) for s in other]
        block[metric] = _mw_dict(mann_whitney_u(a, b))
    return block


def _pairwise_2x2(counts: dict, pair: tuple[str, str], columns: tuple[str, str]) -> dict:
    a, b = pair
    cells = np.array(
        [
            [counts[a][columns[0]], counts[a][columns[1]]],
            [counts[b][columns[0]], counts[b][columns[1]]],
        ]
    )
    if np.any(cells.sum(axis=0) == 0) or np.any(cells.sum(axis=1) == 0):
        return {
            "rows": [a, b],
            "columns": list(columns),
            "cells": cells.tolist(),
            "skipped": "zero marginal",
        }
    table = ContingencyTable(cells, row_labels=(a, b), col_labels=columns)
    orr = odds_ratio(cells[0, 0], cells[0, 1], cells[1, 0], cells[1, 1])
    return {
        "rows": [a, b],
        "columns": list(columns),
        "chi_square": _chi2_dict(chi_square_independence(table)),
        "odds_ratio": _or_dict(orr),
    }


def _h3_block(scored) -> dict:
    counts = {
        g: {
            "generic": sum(1 for s in scored if s.group == g and s.generic),
            "non_generic": sum(1 for s in scored if s.group == g and not s.generic),
        }
        for g in GROUPS
    }
    total_generic = sum(c["generic"] for c in counts.values())
    block = {
        "group_generic_counts": counts,
        "generic_share_of_total": {
            g: (100.0 * c["generic"] / total_generic if total_generic else 0.0)
            for g, c in counts.items()
        },
        "generic_proportion_within_group": {
            g: (
                100.0 * c["generic"] / (c["generic"] + c["non_generic"])
                if (c["generic"] + c["non_generic"])
                else 0.0
            )
            for g, c in counts.items()
        },
    }
    for pair in (("political", "gender"), ("political", "ethnic")):
        name = f"{pair[0]}_vs_{pair[1]}"
        if any(sum(counts[g].values()) == 0 for g in pair):
            block[name] = {"skipped": "empty group"}
            continue
        block[name] = _pairwise_2x2(counts, pair, ("generic", "non_generic"))
    return block


def _h4_block(scored) -> dict:
    generic = [s for s in scored if s.generic]
    if not generic:
        return {"skipped": "empty generic stratum"}
    cells = np.array(
        [
            [
                sum(1 for s in generic if s.sentiment == v and s.group == g)
                for g in GROUPS
            ]
            for v in ("positive", "neutral", "negative")
        ]
    )
    block: dict = {
        "sentiment_by_group": {
            "rows": ["positive", "neutral", "negative"],
            "columns": list(GROUPS),
            "cells": cells.tolist(),
        }
    }
    if np.any(cells.sum(axis=0) == 0) or np.any(cells.sum(axis=1) == 0):
        block["omnibus"] = {"skipped": "zero sentiment or group marginal"}
    else:
        table = ContingencyTable(
            cells, row_labels=("positive", "neutral", "negative"), col_labels=GROUPS
        )
        block["omnibus"] = _chi2_dict(chi_square_independence(table))

    negative_rest = {
        g: {
            "negative": sum(1 for s in generic if s.group == g and s.sentiment == "negative"),
            "neutral_or_positive": sum(
                1 for s in generic if s.group == g and s.sentiment != "negative"
            ),
        }
        for g in GROUPS
    }
    block["negative_vs_rest_counts"] = negative_rest
    for pair in (("political", "gender"), ("political", "ethnic"), ("gender", "ethnic")):
        name = f"{pair[0]}_vs_{pair[1]}"
        if any(sum(negative_rest[g].values()) == 0 for g in pair):
            block[name] = {"skipped": "empty group"}
            continue
        block[name] = _pairwise_2x2(
            negative_rest, pair, ("negative", "neutral_or_positive")
        )
    return block


def _h5_block(scored) -> dict:
    generic = [s for s in scored if s.generic]
    block: dict = {}
    for subset_name, members in (
        ("generic", generic),
        ("generic_negative", [s for s in generic if s.sentiment == "negative"]),
    ):
        sub: dict = {}
        groups = [[s for s in members if s.group == g] for g in GROUPS]
        if any(len(g) == 0 for g in groups):
            block[subset_name] = {
                "skipped": "empty generic stratum in at least one group"
            }
            continue
        for metric, attr in (("likes", "like_count"), ("retweets", "retweet_count")):
            samples = [[getattr(s.tweet, attr) for s in g] for g in groups]
            sub[metric] = _kw_dict(kruskal_wallis(samples))
            sub[metric]["groups"] = list(GROUPS)
        block[subset_name] = sub
    return block


# ---------------------------------------------------------------------------
# recomputability self-check

def recompute_check(report: dict, tol: float = 1e-9) -> list[str]:
    """Recompute every statistic from the counts embedded beside it.

    Returns a list of mismatch descriptions; empty means the report is
    internally consistent.
    """
    problems: list[str] = []

    def close(a, b, what, rel=1e-9):
        if not math.isclose(a, b, rel_tol=rel, abs_tol=tol):
            problems.append(f"{what}: reported {a!r}, recomputed {b!r}")

    h1 = report.get("h1", {})
    if "test" in h1:
        redone = chi_square_gof(list(h1["counts"].values()))
        close(h1["test"]["chi2"], redone.chi2, "h1 chi2")

    for name, block in list(report.get("h3", {}).items()) + list(
        report.get("h4", {}).items()
    ):
        if not isinstance(block, dict) or "chi_square" not in block:
            continue
        cells = np.array(block["chi_square"]["cells"])
        redone = chi_square_independence(ContingencyTable(cells))
        close(block["chi_square"]["chi2"], redone.chi2, f"{name} chi2")
        o = block["odds_ratio"]["cells"]
        redone_or = odds_ratio(o[0], o[1], o[2], o[3])
        close(block["odds_ratio"]["odds_ratio"], redone_or.odds_ratio, f"{name} OR")

    h4 = report.get("h4", {})
    if "omnibus" in h4 and "chi2" in h4.get("omnibus", {}):
        cells = np.array(h4["sentiment_by_group"]["cells"])
        redone = chi_square_independence(ContingencyTable(cells))
        close(h4["omnibus"]["chi2"], redone.chi2, "h4 omnibus chi2")

    h2 = report.get("h2", {})
    for metric, res in h2.items():
        if not isinstance(res, dict) or "z" not in res:
            continue
        n = res["n1"] + res["n2"]
        close(res["r"], abs(res["z"]) / math.sqrt(n), f"h2 {metric} r identity")
        close(res["u1"] + res["u2"], res["n1"] * res["n2"], f"h2 {metric} U sum")

    for subset, sub in report.get("h5", {}).items():
        if not isinstance(sub, dict):
            continue
        for metric, res in sub.items():
            if not isinstance(res, dict) or "h" not in res:
                continue
            n = sum(res["group_sizes"])
            close(
                res["epsilon2"],
                res["h"] / (n - 1),
                f"h5 {subset} {metric} epsilon2 identity",
            )
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


def load_published_tables(path=None) -> dict[str, float]:
    """Read the key,value CSV of published counts."""
    path = Path(path) if path else _bundled("published_tables.csv")
    values: dict[str, float] = {}
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower() == "key,value":
            continue
        key, _, value = line.partition(",")
        if not key or not value:
            raise SchemaError(f"tables line {line_number}: expected 'key,value'")
        values[key.strip()] = float(value)
    required = [
        "h1.generic", "h1.non_generic",
        "h3.political.generic", "h3.political.non_generic",
        "h3.gender.generic", "h3.gender.non_generic",
        "h3.ethnic.generic", "h3.ethnic.non_generic",
        "h4.positive.political", "h4.positive.gender", "h4.positive.ethnic",
        "h4.neutral.political", "h4.neutral.gender", "h4.neutral.ethnic",
        "h4.negative.political", "h4.negative.gender", "h4.negative.ethnic",
        "h2.n", "h2.z_likes", "h2.z_retweets",
        "h5.n", "h5.h_likes", "h5.h_retweets",
    ]
    missing = [k for k in required if k not in values]
    if missing:
        raise SchemaError(f"tables file is missing required rows: {missing}")
    return values


def reproduce_published(path=None) -> ReproductionReport:
    """Recompute the published statistics from their input counts."""
    t = load_published_tables(path)
    rep = ReproductionReport()

    def check(name, computed, expected, tol):
        rep.checks.append(Check(name, float(computed), expected, tol))

    # one-way generic/non-generic split
    gof = chi_square_gof([t["h1.generic"], t["h1.non_generic"]])
    check("h1 gof chi2", gof.chi2, 327051.32, 1.0)
    check("h1 gof p < 1e-10", 0.0 if gof.p < 1e-10 else 1.0, 0.0, 0.0)

    # generic proportions by group, pairwise
    def table2x2(rows, cols, prefix, columns):
        cells = np.array(
            [[t[f"{prefix}.{r}.{c}"] for c in columns] for r in rows]
        ).astype(int)
        return ContingencyTable(cells, row_labels=rows, col_labels=cols)

    pg = table2x2(("political", "gender"), ("generic", "non_generic"), "h3",
                  ("generic", "non_generic"))
    res = chi_square_independence(pg)
    orr = odds_ratio(*pg.counts.ravel())
    check("h3 political-gender chi2", res.chi2, 767.32, 1.0)
    check("h3 political-gender phi", res.phi, 0.030, 0.002)
    check("h3 political-gender OR", orr.odds_ratio, 1.21, 0.005)
    check("h3 political-gender CI low", orr.ci_low, 1.19, 0.01)
    check("h3 political-gender CI high", orr.ci_high, 1.23, 0.01)

    pe = table2x2(("political", "ethnic"), ("generic", "non_generic"), "h3",
                  ("generic", "non_generic"))
    res = chi_square_independence(pe)
    orr = odds_ratio(*pe.counts.ravel())
    check("h3 political-ethnic chi2", res.chi2, 6824.62, 2.0)
    check("h3 political-ethnic OR", orr.odds_ratio, 0.63, 0.005)

    # sentiment x group omnibus and collapsed pairs
    cells3 = np.array(
        [
            [t[f"h4.{v}.{g}"] for g in ("political", "gender", "ethnic")]
            for v in ("positive", "neutral", "negative")
        ]
    ).astype(int)
    omni = chi_square_independence(ContingencyTable(cells3))
    check("h4 omnibus chi2", omni.chi2, 23019.12, 2.0)
    check("h4 omnibus V", omni.cramers_v, 0.22, 0.005)

    def collapsed(group):
        neg = int(t[f"h4.negative.{group}"])
        rest = int(t[f"h4.positive.{group}"] + t[f"h4.neutral.{group}"])
        return neg, rest

    pol, gen, eth = collapsed("political"), collapsed("gender"), collapsed("ethnic")

    res = chi_square_independence(ContingencyTable(np.array([pol, gen])))
    orr = odds_ratio(pol[0], pol[1], gen[0], gen[1])
    check("h4 political-gender chi2", res.chi2, 12894.84, 2.0)
    check("h4 political-gender phi", res.phi, 0.27, 0.005)
    check("h4 political-gender OR", orr.odds_ratio, 4.12, 0.02)
    check("h4 political-gender CI low", orr.ci_low, 4.01, 0.02)
    check("h4 political-gender CI high", orr.ci_high, 4.22, 0.02)

    res = chi_square_independence(ContingencyTable(np.array([pol, eth])))
    orr = odds_ratio(pol[0], pol[1], eth[0], eth[1])
    check("h4 political-ethnic chi2", res.chi2, 1568.65, 2.0)
    check("h4 political-ethnic OR", orr.odds_ratio, 1.55, 0.01)

    res = chi_square_independence(ContingencyTable(np.array([gen, eth])))
    orr = odds_ratio(gen[0], gen[1], eth[0], eth[1])
    check("h4 gender-ethnic chi2", res.chi2, 4763.70, 2.0)
    check("h4 gender-ethnic OR", orr.odds_ratio, 0.38, 0.005)

    # effect-size identities from reported z / H and N
    n2 = t["h2.n"]
    check("h2 r (likes)", abs(t["h2.z_likes"]) / math.sqrt(n2), 0.0113, 0.0005)
    check("h2 r (retweets)", abs(t["h2.z_retweets"]) / math.sqrt(n2), 0.0234, 0.0005)
    n5 = t["h5.n"]
    check("h5 eps2 (likes)", t["h5.h_likes"] / (n5 - 1), 0.00949, 0.0005)
    check("h5 eps2 (retweets)", t["h5.h_retweets"] / (n5 - 1), 0.00823, 0.0005)

    return rep
