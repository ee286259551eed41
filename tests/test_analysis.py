"""Pipeline recipes, config parsing, recomputability, and reproduction."""

import copy
import hashlib
import importlib
import io
import json
import logging
import math
import os
import re
import shutil
import struct
import threading
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import reduce
from importlib import resources
from operator import getitem
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import genscope.analysis
import genscope.classifier.logistic
import genscope.corpus.ids
import genscope.corpus.records
import genscope.parts
from genscope.analysis import (
    AnalysisConfig,
    _h2_block,
    _h5_block,
    _histogram,
    _median,
    load_published_tables,
    recompute_check,
    reproduce_published,
    run_analysis,
)
from genscope.annotator import RuleAnnotator
from genscope.classifier import (
    CsrMatrix,
    GenericityClassifier,
    predict_score,
    save_model,
    tokenize,
    vectorize_bow,
)
from genscope.classifier.features import LEXER_RE, TOKEN_RE
from genscope.cli import main
from genscope.corpus import (
    GROUPS,
    compile_terms,
    ingest,
    lang_matches,
    load_group_lexicon,
    load_query,
    partition,
)
from genscope.errors import InputError, SchemaError
from genscope.parts import byte_ranges
from genscope.reporting import emit_report, render_csv, render_markdown
from genscope.sentiment import SENTIMENTS, load_external_labels
from genscope.stats import chi_square_sf, two_sided_p
from genscope.synth import generate_corpus, generate_training_texts

from corpora import write_jsonl
from oracles import histogram_oracle, stack_features_oracle, tokenize_oracle

BUNDLED_CORPUS = resources.files("genscope.data") / "synthetic_corpus.jsonl"
PUBLISHED_TABLES = resources.files("genscope.data") / "published_tables.csv"


def _leaf_paths(node, prefix=()):
    """The key path of every number, bool or string below ``node``."""
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaf_paths(child, prefix + (key,))
    elif node is not None:
        yield prefix


@pytest.fixture(scope="module")
def bundled_report():
    config = AnalysisConfig(corpus=str(BUNDLED_CORPUS))
    return run_analysis(config)


class TestConfig:
    def test_from_file(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("")
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            f"corpus = {corpus}\nthreshold = 0.6\nseed = 9\nformat = csv\n"
            "# comment\nalpha = 0.01\n"
        )
        config = AnalysisConfig.from_file(cfg_file)
        assert config.threshold == 0.6
        assert config.seed == 9
        assert config.format == "csv"
        assert config.alpha == 0.01

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("corpus = x\nnonsense = 1\n")
        with pytest.raises(SchemaError, match="unknown key"):
            AnalysisConfig.from_file(cfg_file)

    def test_overrides_win(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("corpus = a.jsonl\nthreshold = 0.6\n")
        config = AnalysisConfig.from_file(cfg_file, threshold=0.7)
        assert config.threshold == 0.7

    @pytest.mark.parametrize(
        "line, message",
        [
            ("threshold = abc", "threshold must be a number, not 'abc'"),
            ("alpha = 5%", "alpha must be a number, not '5%'"),
            ("histogram_bin_width = wide", "histogram_bin_width must be a number"),
            ("seed = 1.5", "seed must be an integer, not '1.5'"),
        ],
        ids=["threshold", "alpha", "histogram_bin_width", "seed"],
    )
    def test_non_number_rejected(self, tmp_path, line, message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"corpus = x\n# comment\n{line}\n")
        with pytest.raises(SchemaError, match=re.escape(f"config line 3: {message}")):
            AnalysisConfig.from_file(cfg_file)

    def test_invalid_ranges(self):
        with pytest.raises(InputError):
            AnalysisConfig(corpus="x", threshold=1.5)
        with pytest.raises(InputError):
            AnalysisConfig(corpus="x", alpha=0.0)
        with pytest.raises(InputError):
            AnalysisConfig(corpus="x", format="xml")


class TestRunAnalysis:
    def test_all_blocks_present(self, bundled_report):
        for block in ("provenance", "descriptives", "h1", "h2", "h3", "h4", "h5"):
            assert block in bundled_report
        assert "test" in bundled_report["h1"]
        assert "likes" in bundled_report["h2"]
        assert "political_vs_gender" in bundled_report["h3"]
        assert "omnibus" in bundled_report["h4"]
        assert "generic" in bundled_report["h5"]
        assert "generic_negative" in bundled_report["h5"]

    def test_partition_conservation(self, bundled_report):
        parts = bundled_report["partition"]
        assert sum(parts.values()) == bundled_report["ingest"]["accepted"]
        counts = bundled_report["descriptives"]["group_counts"]
        assert sum(counts.values()) == bundled_report["descriptives"]["analyzed_tweets"]
        # descriptives mirror the partition exactly; no double counting
        for group in ("political", "gender", "ethnic"):
            assert counts[group] == parts[group]

    def test_recomputable(self, bundled_report):
        assert recompute_check(bundled_report) == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recomputable_on_generated_corpora(self, tmp_path, seed):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(generate_corpus(n=400, seed=seed), path)
        report = run_analysis(AnalysisConfig(corpus=str(path)))
        assert recompute_check(report) == []
        assert recompute_check(json.loads(json.dumps(report))) == []

    @pytest.mark.parametrize(
        "path, checks",
        [
            (("ingest", "accepted"), ["ingest.accepted"]),
            (("partition", "unmatched"), ["ingest.accepted"]),
            (
                ("descriptives", "analyzed_tweets"),
                ["descriptives.analyzed_tweets",
                 "descriptives.group_percent.political",
                 "descriptives.sentiment_counts",
                 "descriptives.sentiment_percent.negative",
                 "descriptives.score_histograms.overall",
                 "h1.counts.non_generic",
                 "h2.likes.n2", "h2.retweets.n2"],
            ),
            (
                ("descriptives", "group_counts", "gender"),
                ["descriptives.analyzed_tweets",
                 "descriptives.group_percent.gender",
                 "descriptives.score_histograms.gender",
                 "h3.group_generic_counts.gender"],
            ),
            (
                ("descriptives", "generic_count"),
                ["h1.counts.generic",
                 "h2.likes.n1", "h2.likes.n2", "h2.retweets.n1", "h2.retweets.n2"],
            ),
            (
                ("h3", "group_generic_counts", "political", "generic"),
                ["h3.group_generic_counts.political",
                 "h3.generic_share_of_total.political",
                 "h4.sentiment_by_group.cells.*.0",
                 "h5.generic.likes.group_sizes.0", "h5.generic.retweets.group_sizes.0"],
            ),
            (
                ("h4", "sentiment_by_group", "cells", 0, 1),
                ["h4.sentiment_by_group.cells.*.1", "h4.omnibus.chi2"],
            ),
        ],
        ids=["accepted", "bucket", "analyzed", "group-count", "generic-count",
             "h3-generic", "h4-cell"],
    )
    def test_edited_count_does_not_reconcile(self, bundled_report, path, checks):
        report = copy.deepcopy(bundled_report)
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1
        assert [p.split(":")[0] for p in recompute_check(report)] == checks

    # the leaves of the bundled report that need the raw samples to check;
    # a new report field fails test_every_leaf_is_checked until
    # recompute_check covers it or this set names it
    UNCHECKED_LEAVES = {
        *(f"provenance.{key}" for key in (
            "tool_version", "corpus", "corpus_sha256", "mode", "threshold", "alpha", "seed",
            "histogram_bin_width", "statistics",
        )),
        "ingest.rejected",
        *(f"descriptives.score_medians.{g}.{m}" for g in GROUPS for m in ("all", "generic")),
    }

    def test_every_leaf_is_checked(self, bundled_report):
        # a number +1, a bool flipped, a string one character longer
        report = json.loads(json.dumps(bundled_report))
        silent = []
        for path in _leaf_paths(report):
            parent = report
            for key in path[:-1]:
                parent = parent[key]
            value = parent[path[-1]]
            if isinstance(value, bool):
                parent[path[-1]] = not value
            else:
                parent[path[-1]] = value + ("x" if isinstance(value, str) else 1)
            if not recompute_check(report):
                silent.append(".".join(map(str, path)))
            parent[path[-1]] = value
        assert len(self.UNCHECKED_LEAVES) == 16
        assert set(silent) <= self.UNCHECKED_LEAVES
        assert recompute_check(report) == []

    @staticmethod
    def _scaled_h2_z(report):
        res = report["h2"]["likes"]
        res["z"] *= 1.5
        res["p"] = two_sided_p(res["z"])
        res["r"] = abs(res["z"]) / math.sqrt(res["n1"] + res["n2"])

    @staticmethod
    def _scaled_h5_h(report):
        res = report["h5"]["generic"]["likes"]
        res["h"] *= 1.5
        res["p"] = chi_square_sf(res["h"], res["df"])
        res["epsilon2"] = res["h"] / (sum(res["group_sizes"]) - 1)

    @staticmethod
    def _moved_rank_sums(report):
        # every number rebuilt from rank sums whose total is not 1 + ... + N
        h5 = report["h5"]
        h5["generic"]["likes"]["rank_sums_x2"][0] += 2
        report["h5"] = _h5_block(
            h5["generic"]["likes"]["group_sizes"], report["h4"]["sentiment_by_group"]["cells"],
            lambda subset, metric, _: h5[subset][metric],
        )

    @staticmethod
    def _add_one(*path):
        def edit(report):
            node = report
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += 1
        return edit

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (_scaled_h2_z, "h2.likes.z"),
            (_scaled_h5_h, "h5.generic.likes.h"),
            (_add_one("h2", "retweets", "ties"), "h2.retweets.ties"),
            (_add_one("h5", "generic_negative", "likes", "ties"), "h5.generic_negative.likes.ties"),
            (_add_one("h5", "generic", "retweets", "rank_sums_x2", 1),
             "h5.generic.retweets.rank_sums_x2"),
            (_moved_rank_sums, "h5.generic.likes.rank_sums_x2"),
            (_add_one("h2", "likes", "u1"), "h2.likes.u2"),
        ],
        ids=["h2-z-p-r", "h5-h-p-eps2", "h2-ties", "h5-ties", "h5-rank-sum",
             "h5-rank-sum-total", "h2-u1"],
    )
    def test_edit_consistent_with_its_identities_is_caught(self, bundled_report, edit, problem):
        # each edit keeps p, r and epsilon2 in step with z or H, or moves z
        # by less than the tolerance; it is still reported
        report = json.loads(json.dumps(bundled_report))
        edit(report)
        assert recompute_check(report)[0].split(":")[0] == problem

    @pytest.mark.parametrize(
        "ties", [-6, 7, 1728**3 - 1728 + 6, 6.0, True],
        ids=["negative", "not-a-multiple-of-6", "above-n-cubed", "float", "bool"],
    )
    def test_tie_term_no_sample_has_is_caught(self, bundled_report, ties):
        report = json.loads(json.dumps(bundled_report))
        report["h2"]["likes"]["ties"] = ties
        assert recompute_check(report)[0] == (
            f"h2.likes.ties: reported {ties!r}, not the tie term of any 1728 values"
        )

    @pytest.mark.parametrize("u1", [-1000 - 671 * 1057, 465087.75, 671 * 1057 + 0.5, True],
                             ids=["negative", "quarter", "above-n1-n2", "bool"])
    def test_u_no_sample_has_is_caught(self, bundled_report, u1):
        # the block rebuilt from the edited U, so that only the range check
        # can catch it
        report = json.loads(json.dumps(bundled_report))
        h2 = report["h2"]
        assert (h2["likes"]["n1"], h2["likes"]["n2"]) == (671, 1057)
        h2["likes"]["u1"] = u1
        report["h2"] = json.loads(json.dumps(_h2_block(671, 1057, h2.get)))
        assert recompute_check(report)[0] == (
            f"h2.likes.u1: reported {u1!r}, not the U of any samples of 671 and 1057 values"
        )

    @pytest.mark.parametrize("u1", [0, 0.5, 671 * 1057, 465087.0])
    def test_u_a_sample_has_passes(self, bundled_report, u1):
        report = json.loads(json.dumps(bundled_report))
        h2 = report["h2"]
        h2["likes"]["u1"] = u1
        report["h2"] = json.loads(json.dumps(_h2_block(671, 1057, h2.get)))
        assert recompute_check(report) == []

    @pytest.mark.parametrize("path, skipped", [
        ("h2", "empty generic stratum"),
        ("h5.generic", "empty generic stratum in at least one group"),
        ("h5.generic_negative", "empty generic stratum in at least one group"),
    ])
    def test_a_test_skipped_on_samples_is_caught(self, bundled_report, path, skipped):
        report = json.loads(json.dumps(bundled_report))
        *outer, last = path.split(".")
        reduce(getitem, outer, report)[last] = {"skipped": skipped}
        assert recompute_check(report) == [
            f"{path}: reported {{'skipped': {skipped!r}}}, recomputed a test of its samples"
        ]

    def test_all_tied_samples_rebuild_as_degenerate(self, tmp_path):
        # every like and retweet 0: T = N^3 - N, and both tests degenerate
        rows = [
            {"id": f"t{i}", "text": text, "like_count": 0, "retweet_count": 0, "lang": "en"}
            for i, text in enumerate(
                [f"{term} are awful" for term in ("democrats", "trans people", "white men")] * 3
                + ["democrats blocked the bill", "white men voted today"]
            )
        ]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(rows, path)
        report = json.loads(json.dumps(run_analysis(AnalysisConfig(corpus=str(path)))))
        n = report["descriptives"]["analyzed_tweets"]
        assert report["h2"]["likes"]["degenerate"] is True
        assert report["h2"]["likes"]["ties"] == n**3 - n
        assert report["h5"]["generic"]["likes"]["degenerate"] is True
        assert "posthoc" not in report["h5"]["generic"]["likes"]
        assert recompute_check(report) == []
        report["h2"]["likes"]["degenerate"] = False
        report["h5"]["generic"]["likes"]["ties"] -= 6
        assert [p.split(":")[0] for p in recompute_check(report)] == [
            "h2.likes.degenerate", "h5.generic.likes",  # posthoc is back
        ]

    @pytest.mark.parametrize(
        "newline, final, blank",
        [("\r\n", True, False), ("\r", True, False), ("\n", False, False),
         ("\n", True, True), ("\r\n", False, True)],
        ids=["crlf", "bare-cr", "no-final-newline", "blank-lines", "crlf-blank-no-final"],
    )
    def test_corpus_sha256_is_of_the_raw_bytes(self, tmp_path, newline, final, blank):
        records = generate_corpus(n=40, seed=5)
        records[0]["text"] = "démocrates — 政治 🤔 democrats are loud"
        lines = [json.dumps(r, ensure_ascii=False) for r in records]
        if blank:
            lines[10:10] = ["", "   "]
        text = newline.join(lines) + (newline if final else "")
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(text.encode("utf-8"))
        report = run_analysis(AnalysisConfig(corpus=str(path)))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert report["provenance"]["corpus_sha256"] == digest
        assert report["ingest"] == {"accepted": 40, "rejected": 0}

    def test_histograms_cover_unit_interval(self, bundled_report):
        hists = bundled_report["descriptives"]["score_histograms"]
        overall = hists["overall"]
        assert overall[0][0] == 0.0
        assert len(overall) == 50  # 0.02 bins
        total = sum(count for _, count in overall)
        assert total == bundled_report["descriptives"]["analyzed_tweets"]

    def test_all_non_generic_corpus_skips_strata(self, tmp_path):
        rows = [
            {
                "id": f"x{i}",
                "text": f"democrats blocked the bill {i} times",
                "like_count": i,
                "retweet_count": 0,
                "lang": "en",
            }
            for i in range(10)
        ]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(rows, path)
        report = run_analysis(AnalysisConfig(corpus=str(path)))
        assert report["h2"] == {"skipped": "empty generic stratum"}
        assert "skipped" in report["h5"]["generic"]
        assert "test" in report["h1"]  # H1 still emitted
        assert recompute_check(report) == []

    def test_uniform_sentiment_skips_pairwise_with_flag(self, tmp_path):
        # every generic tweet negative: the collapsed 2x2s have a zero
        # column marginal and must flag, not crash or emit silent zeros
        rows = []
        for i, term in enumerate(
            ["democrats", "trans people", "white men"] * 4
        ):
            rows.append(
                {
                    "id": f"n{i}",
                    "text": f"{term} are awful trash and garbage",
                    "like_count": i,
                    "retweet_count": i % 3,
                    "lang": "en",
                }
            )
        path = tmp_path / "corpus.jsonl"
        write_jsonl(rows, path)
        report = run_analysis(AnalysisConfig(corpus=str(path)))
        block = report["h4"]["political_vs_gender"]
        assert block["skipped"] == "zero marginal"
        assert recompute_check(report) == []

    def test_external_sentiment_takes_precedence(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_jsonl(
            [
                {
                    "id": "a1",
                    "text": "democrats love drama what a great community",
                    "like_count": 3,
                    "retweet_count": 1,
                    "lang": "en",
                },
                {
                    "id": "a2",
                    "text": "democrats blocked the bill",
                    "like_count": 1,
                    "retweet_count": 0,
                    "lang": "en",
                },
            ],
            corpus,
        )
        labels = tmp_path / "sentiment.jsonl"
        labels.write_text(
            '{"id": "a1", "sentiment": "negative"}\n', encoding="utf-8"
        )
        report = run_analysis(
            AnalysisConfig(corpus=str(corpus), external_sentiment=str(labels))
        )
        # the lexicon would call a1 positive; the external label wins
        assert report["descriptives"]["sentiment_counts"]["negative"] >= 1

    def test_lexicon_must_cover_query(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        write_jsonl(
            [{"id": "1", "text": "hi", "like_count": 0, "retweet_count": 0, "lang": "en"}],
            corpus,
        )
        query = tmp_path / "q.txt"
        query.write_text("(unmappedterm)\n")
        with pytest.raises(SchemaError, match="does not cover"):
            run_analysis(AnalysisConfig(corpus=str(corpus), query=str(query)))


class TestDeterminism:
    def test_bundled_corpus_matches_generator(self, tmp_path):
        regenerated = tmp_path / "regen.jsonl"
        write_jsonl(generate_corpus(), regenerated)
        assert regenerated.read_bytes() == Path(str(BUNDLED_CORPUS)).read_bytes()

    def test_emitted_files_byte_identical(self, bundled_report, tmp_path):
        a = emit_report(bundled_report, "markdown", tmp_path / "a")
        b = emit_report(bundled_report, "markdown", tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    # sha256 of the bundled corpus's report.json with provenance.corpus set
    # to its file name: every count, statistic and histogram, to the byte.
    # A change that means to move a number, or tool_version, updates it.
    GOLDEN_REPORT_SHA256 = "5197239d16cc214f64c03848af853bc6d67bf8ce4c8f2d8fc42fe4da6b12a091"

    def test_bundled_report_json_matches_golden_hash(self, bundled_report, tmp_path):
        report = copy.deepcopy(bundled_report)
        report["provenance"]["corpus"] = "synthetic_corpus.jsonl"
        emit_report(report, "markdown", tmp_path)
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_REPORT_SHA256


class TestRendering:
    def test_markdown_contains_all_sections(self, bundled_report):
        text = render_markdown(bundled_report)
        for heading in ("## H1", "## H2", "## H3", "## H4", "## H5", "## Descriptives"):
            assert heading in text

    def test_h4_table_layout(self, bundled_report):
        text = render_markdown(bundled_report)
        assert "| sentiment | political | gender | ethnic | total |" in text
        assert "| total |" in text

    def test_csv_same_numbers(self, bundled_report):
        csv_text = render_csv(bundled_report)
        chi2 = bundled_report["h1"]["test"]["chi2"]
        assert f"h1.test.chi2,{chi2!r}" in csv_text

    def test_emit_writes_expected_files(self, bundled_report, tmp_path):
        written = emit_report(bundled_report, "csv", tmp_path)
        names = {p.name for p in written}
        assert "report.json" in names
        assert "report.csv" in names
        assert "genericity_hist_overall.csv" in names
        assert "genericity_hist_political.csv" in names
        saved = json.loads((tmp_path / "report.json").read_text())
        assert recompute_check(saved) == []


class TestReproduction:
    def test_bundled_tables_pass(self):
        rep = reproduce_published()
        assert rep.all_passed
        assert len(rep.checks) == 24

    def test_perturbed_cell_fails_matching_check(self, tmp_path):
        tables = load_published_tables()
        tables["h4.negative.political"] += 1000
        path = tmp_path / "tables.csv"
        path.write_text(
            "key,value\n" + "\n".join(f"{k},{v}" for k, v in tables.items()) + "\n"
        )
        rep = reproduce_published(path)
        assert not rep.all_passed
        failed = {c.name for c in rep.checks if not c.passed}
        assert any("h4" in name for name in failed)
        # untouched blocks still pass
        assert all(not c.name.startswith("h3") or c.passed for c in rep.checks)

    def test_empty_tables_file_lists_required(self, tmp_path):
        path = tmp_path / "tables.csv"
        path.write_text("key,value\n")
        with pytest.raises(SchemaError, match="missing required rows"):
            reproduce_published(path)


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("h3.gender.generic", "abc", "is not a number"),
            ("h3.gender.generic", "nan", "is not finite"),
            ("h2.z_likes", "inf", "is not finite"),
            ("h3.gender.generic", "31846.7", "is not a whole number from 0 to 1000000000"),
            ("h4.negative.ethnic", "-1", "is not a whole number"),
            ("h1.generic", "1e12", "is not a whole number"),
            ("h2.n", "0", "is below 1"),
            ("h5.n", "1", "is below 2"),
        ],
        ids=["abc", "nan", "inf", "fraction", "negative", "over-max", "h2-n", "h5-n"],
    )
    def test_bad_value_names_its_line(self, tmp_path, key, value, message):
        lines = PUBLISHED_TABLES.read_text().splitlines()
        number = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key},"))
        lines[number - 1] = f"{key},{value}"
        path = tmp_path / "tables.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"tables line {number}: {key}: ")
                           + ".*" + re.escape(message)):
            load_published_tables(path)

    def test_checks_read_the_analysis_blocks(self, bundled_report, tmp_path):
        # a tables file holding the bundled report's own counts, z, H and N:
        # every check must recompute the value the report holds
        r = bundled_report
        tables = {f"h1.{k}": v for k, v in r["h1"]["counts"].items()}
        for g, counts in r["h3"]["group_generic_counts"].items():
            tables.update({f"h3.{g}.{k}": v for k, v in counts.items()})
        h4 = r["h4"]["sentiment_by_group"]
        for v, row in zip(h4["rows"], h4["cells"]):
            tables.update({f"h4.{v}.{g}": n for g, n in zip(h4["columns"], row)})
        likes, retweets = r["h2"]["likes"], r["h2"]["retweets"]
        kw_likes, kw_retweets = r["h5"]["generic"]["likes"], r["h5"]["generic"]["retweets"]
        tables.update({
            "h2.n": likes["n1"] + likes["n2"],
            "h2.z_likes": likes["z"],
            "h2.z_retweets": retweets["z"],
            "h5.n": sum(kw_likes["group_sizes"]),
            "h5.h_likes": kw_likes["h"],
            "h5.h_retweets": kw_retweets["h"],
        })
        path = tmp_path / "tables.csv"
        path.write_text("key,value\n" + "".join(f"{k},{v!r}\n" for k, v in tables.items()))

        def at(*keys):
            node = r
            for key in keys:
                node = node[key]
            return node

        expected = {
            "h1 gof chi2": at("h1", "test", "chi2"),
            "h1 gof p < 1e-10": float(at("h1", "test", "p") >= 1e-10),
            "h4 omnibus chi2": at("h4", "omnibus", "chi2"),
            "h4 omnibus V": at("h4", "omnibus", "cramers_v"),
            "h2 r (likes)": likes["r"],
            "h2 r (retweets)": retweets["r"],
            "h5 eps2 (likes)": kw_likes["epsilon2"],
            "h5 eps2 (retweets)": kw_retweets["epsilon2"],
        }
        stats = {
            "chi2": ("chi_square", "chi2"),
            "phi": ("chi_square", "phi"),
            "OR": ("odds_ratio", "odds_ratio"),
            "CI low": ("odds_ratio", "ci_low"),
            "CI high": ("odds_ratio", "ci_high"),
        }
        for block, pair, names in [
            ("h3", "political-gender", stats),
            ("h3", "political-ethnic", ("chi2", "OR")),
            ("h4", "political-gender", stats),
            ("h4", "political-ethnic", ("chi2", "OR")),
            ("h4", "gender-ethnic", ("chi2", "OR")),
        ]:
            for name in names:
                value = at(block, pair.replace("-", "_vs_"), *stats[name])
                expected[f"{block} {pair} {name}"] = value

        checks = reproduce_published(path).checks
        assert sorted(c.name for c in checks) == sorted(expected)
        for check in checks:
            if check.name.startswith(("h2", "h5")):
                assert check.computed == pytest.approx(expected[check.name], rel=1e-12)
            else:
                assert check.computed == expected[check.name], check.name


# every width AnalysisConfig accepts is 1/k; these span its range
WIDTHS = [0.5, 0.25, 0.2, 0.1, 0.05, 0.04, 0.02, 0.01, 0.005, 0.001]


class TestHistogram:
    @pytest.mark.parametrize("width", [0.02, 0.05, 0.1])
    def test_every_edge_lands_in_its_own_bin(self, width):
        # 0.58 and 0.94 at width 0.02, or 0.3 at width 0.1, divide to just
        # under their bin index in floating point
        n_bins = int(round(1.0 / width))
        edges = [round(i * width, 10) for i in range(n_bins)]
        hist = _histogram(edges + [1.0], width)
        assert [edge for edge, _ in hist] == edges
        assert [count for _, count in hist] == [1] * (n_bins - 1) + [2]

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_the_bisect_oracle(self, data):
        width = data.draw(st.sampled_from(WIDTHS))
        edges = [round(i * width, 10) for i in range(int(round(1.0 / width)))]
        near_edges = st.sampled_from(edges + [1.0]).flatmap(
            lambda e: st.sampled_from([e, math.nextafter(e, -1.0), math.nextafter(e, 2.0)])
        )
        scores = data.draw(st.lists(
            near_edges | st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 0.5]), max_size=60
        ))
        hist = _histogram(np.array(scores, dtype=float), width)
        assert hist == histogram_oracle(scores, width)
        assert all(type(edge) is float and type(count) is int for edge, count in hist)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_edge_and_its_neighbours_match_the_oracle(self, width):
        edges = [round(i * width, 10) for i in range(int(round(1.0 / width)))]
        scores = [s for e in edges + [1.0]
                  for s in (e, math.nextafter(e, -1.0), math.nextafter(e, 2.0))]
        for sample in (scores, [], [0.0], [-0.0] * 5, [1.0] * 5):
            want = histogram_oracle(sample, width)
            assert _histogram(np.array(sample, dtype=float), width) == want


class TestMedian:
    """``_median`` gives np.median's bits without importing numpy.ma."""

    @staticmethod
    def _bits(x):
        return struct.pack("<d", x)

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(st.data())
    def test_matches_np_median(self, data):
        n = data.draw(st.integers(1, 40))
        values = data.draw(st.one_of(
            st.lists(st.floats(allow_nan=False), min_size=n, max_size=n),
            # ties, and the 0/1 scores of annotator mode
            st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n),
            st.lists(st.sampled_from([-0.0, 0.0, 0.25, 0.5]), min_size=n, max_size=n),
            # model scores: sigmoids, many of them 1/(1+e^-b) of the bias alone
            st.lists(st.floats(-40, 40).map(lambda z: 1 / (1 + math.exp(-z)))
                     | st.just(1 / (1 + math.exp(-0.7))), min_size=n, max_size=n),
            st.lists(st.floats(), min_size=n, max_size=n),  # with NaN and inf
        ))
        arr = np.array(values, dtype=float)
        copy = arr.copy()
        assert self._bits(_median(arr)) == self._bits(float(np.median(arr)))
        assert arr.tobytes() == copy.tobytes()  # the input is not reordered

    def test_empty_is_none(self):
        assert _median(np.array([], dtype=float)) is None


class TestSinglePass:
    """``run_analysis`` reads the corpus once, lexes each tweet once and
    keeps only numbers per analysed tweet."""

    def test_lex_once_per_tweet_that_passes_lang(self, monkeypatch, tmp_path):
        # annotator mode scans LEXER_RE in normalize; model mode scans
        # TOKEN_RE in tokenize. Each scans the whitespace-free chunks of the
        # lang-passing tweets: a distinct chunk once per run (its table, or
        # tokenize's process-wide cache emptied before the run), and a chunk
        # with a URL, which is never cached, once per occurrence. Neither
        # calls finditer, which only the span of a verdict's subject needs.
        texts = []

        class CountingLexer:
            def __init__(self, pattern):
                self.pattern = pattern

            def findall(self, text):
                texts.append(text)
                return self.pattern.findall(text)

        for module, name, pattern in (
            ("genscope.classifier.features", "LEXER_RE", LEXER_RE),
            ("genscope.classifier.features", "TOKEN_RE", TOKEN_RE),
            ("genscope.annotator.normalize", "LEXER_RE", LEXER_RE),
        ):
            monkeypatch.setattr(importlib.import_module(module), name, CountingLexer(pattern))
        # the bundled corpus, with a URL, alone or after a word and a colon,
        # on every seventh tweet; the same URL chunk recurs
        records = [json.loads(line) for line in BUNDLED_CORPUS.read_text("utf-8").splitlines()]
        urls = ["https://t.co/a", "see:www.x.com/b", "https://t.co/a?", "http://t.co/\nc"]
        for i, record in enumerate(records[::7]):
            record["text"] += f" {urls[i % len(urls)]}"
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(records, corpus)
        query = load_query(resources.files("genscope.data") / "default_query.txt")
        tweets = []
        ingest(str(corpus), tweets.extend, query)
        chunks = Counter(
            chunk for t in tweets if lang_matches(t.lang, query.lang) for chunk in t.text.split()
        )
        want = Counter({
            chunk: n if "URL" in tokenize_oracle(chunk) else 1 for chunk, n in chunks.items()
        })
        assert chunks["https://t.co/a"] == want["https://t.co/a"] > 1
        assert chunks["the"] > want["the"] == 1
        train, labels = generate_training_texts(n=300, seed=5)
        save_model(GenericityClassifier(min_count=1, epochs=5).fit(train, labels).model_,
                   tmp_path / "model.txt")
        for model in (None, str(tmp_path / "model.txt")):  # annotator, then model mode
            texts.clear()
            monkeypatch.setattr("genscope.classifier.features._CHUNKS", {})  # empty
            report = run_analysis(AnalysisConfig(corpus=str(corpus), model=model))
            assert len(tweets) == report["ingest"]["accepted"]
            assert Counter(texts) == want

    def test_peak_memory_does_not_grow_per_line(self, tmp_path):
        # what stays alive per input line is its accepted id and four
        # numbers per analysed tweet, 70 to 110 bytes here (with what the
        # tests before this one left in the heap); holding each tweet and a
        # scored record for it would cost about 720
        logging.disable(logging.WARNING)  # the directive warnings
        try:
            peaks = {}
            for n in (100, 2000, 4000):  # the first run warms the imports
                path = tmp_path / f"corpus{n}.jsonl"
                write_jsonl(generate_corpus(n=n, seed=7), path)
                tracemalloc.start()
                try:
                    run_analysis(AnalysisConfig(corpus=str(path)))
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        finally:
            logging.disable(logging.NOTSET)
        assert (peaks[4000] - peaks[2000]) / 2000 <= 150

    def test_external_labels_peak_memory_per_label(self, tmp_path):
        # the labels' table keeps about 35 bytes per label (24 of index, a
        # sentiment byte, one or two of filter and the id's 7); a dict of
        # str ids kept 80 to 90
        peaks = {}
        for n in (100, 2000, 4000):  # the first run warms the imports
            path = tmp_path / f"labels{n}.jsonl"
            path.write_text("".join(
                json.dumps({"id": f"t{i:06d}", "sentiment": ("negative", "neutral")[i % 2]}) + "\n"
                for i in range(n)
            ), encoding="utf-8")
            tracemalloc.start()
            try:
                assert len(load_external_labels(path).labels) == n
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[4000] - peaks[2000]) / 2000 <= 60

    @pytest.mark.parametrize("command", ["ingest", "annotate", "classify"])
    def test_streamed_commands_peak_memory_does_not_grow_per_line(
        self, tmp_path, capsys, command
    ):
        # each block's rows are written as ingest hands the block on, so
        # what stays alive per input line is its accepted id (and the
        # annotator's words), 50 to 80 bytes here; holding every tweet cost
        # 410 to 640 bytes a line
        texts, labels = generate_training_texts(n=300, seed=5)
        model = tmp_path / "model.txt"
        save_model(GenericityClassifier(min_count=1, epochs=20).fit(texts, labels).model_, model)
        peaks = {}
        for n in (100, 2000, 4000):  # the first run warms the imports
            path = tmp_path / f"corpus{n}.jsonl"
            write_jsonl(generate_corpus(n=n, seed=7), path)
            argv = [command, "--corpus", str(path), "--out", str(tmp_path / f"out{n}")]
            if command == "classify":
                argv += ["--model", str(model)]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert (peaks[4000] - peaks[2000]) / 2000 <= 120

    @pytest.fixture(scope="class")
    def model_inputs(self, tmp_path_factory):
        where = tmp_path_factory.mktemp("blocks")
        texts, labels = generate_training_texts(n=300, seed=5)
        clf = GenericityClassifier(min_count=1, epochs=50).fit(texts, labels)
        save_model(clf.model_, where / "model.txt")
        lines = Path(str(BUNDLED_CORPUS)).read_text().splitlines()
        ids = [json.loads(line)["id"] for line in lines]
        sentiments = ("negative", "neutral", "positive")
        (where / "labels.jsonl").write_text(
            "".join(
                json.dumps({"id": i, "sentiment": sentiments[k % 3]}) + "\n"
                for k, i in enumerate(ids[::3])
            )
        )
        return where, clf.model_

    def test_block_scoring_matches_one_batch(self, model_inputs, monkeypatch):
        where, model = model_inputs
        query = load_query(resources.files("genscope.data") / "default_query.txt")
        terms = compile_terms(query, load_group_lexicon(
            resources.files("genscope.data") / "group_lexicon.tsv"))
        accepted = []
        ingest(str(BUNDLED_CORPUS), accepted.extend, query)
        outputs = {}
        for block in (1, 3, genscope.corpus.records.BLOCK):
            monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
            # each block's kept tweets, as (column, count) rows
            want = []
            for start in range(0, len(accepted), block):
                kept = [
                    vectorize_bow(tokenize(t.text), model.vocab)
                    for t in accepted[start : start + block]
                    if lang_matches(t.lang, query.lang)
                    and partition(terms, tokenize(t.text)) in GROUPS
                ]
                if kept:
                    want.append(kept)
            matrices, scores = [], []

            def scoring(model, features):
                matrices.append(features)
                scores.append(predict_score(model, features))
                return scores[-1]

            monkeypatch.setattr(genscope.classifier.logistic, "predict_score", scoring)
            out = where / f"out{block}"
            argv = ["analyze", "--corpus", str(BUNDLED_CORPUS),
                    "--model", str(where / "model.txt"),
                    "--external-sentiment", str(where / "labels.jsonl"), "--out", str(out)]
            assert main(argv) == 0
            outputs[block] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            # one call per block that keeps a tweet, holding that block's rows
            got = [
                [list(zip(m.indices[m.indptr[i] : m.indptr[i + 1]].tolist(),
                          m.data[m.indptr[i] : m.indptr[i + 1]].tolist()))
                 for i in range(len(m))]
                for m in matrices
            ]
            assert got == want
            stacked = stack_features_oracle([r for rows in got for r in rows], model.dimension)
            whole = predict_score(
                model, CsrMatrix(stacked.indptr, stacked.indices, stacked.data, model.dimension)
            )
            assert np.concatenate(scores).tobytes() == whole.tobytes()
        first = outputs.pop(1)
        assert all(files == first for files in outputs.values())
        assert len(first) > 1


# ---------------------------------------------------------------------------
# the single pass cut into byte ranges, one per usable CPU


@contextmanager
def _cut(cpus: int, floor: int = 1):
    """Cut corpora into at most ``cpus`` ranges of at least ``floor`` bytes."""
    with mock.patch.object(genscope.parts, "usable_cpus", lambda: cpus), \
            mock.patch.object(genscope.parts, "ANALYZE_FLOOR", floor):
        yield


def _corpus_ranges(path):
    """The byte ranges ``analyze`` cuts the corpus at ``path`` into."""
    return byte_ranges(path, genscope.parts.ANALYZE_FLOOR)


def _analyze(argv, out, cpus: int, floor: int = 1):
    """``main(argv + --out out)`` with the corpus cut as ``_cut`` says: the
    exit code, the bytes of report.json (None on failure) and everything
    written to stderr, the warnings logged included, in order."""
    shutil.rmtree(out, ignore_errors=True)
    stderr = io.StringIO()
    handler = logging.StreamHandler(stderr)
    logger = logging.getLogger("genscope")
    logger.addHandler(handler)
    try:
        with _cut(cpus, floor), redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = main([*map(str, argv), "--out", str(out)])
    finally:
        logger.removeHandler(handler)
    report = (out / "report.json").read_bytes() if code == 0 else None
    return code, report, stderr.getvalue()


def _record(tweet_id, text="democrats are loud", **fields) -> dict:
    return {"id": tweet_id, "text": text, "like_count": len(text), "retweet_count": 1,
            "lang": "en", **fields}


# every directive field of the default query, none of them set
CLEAN = dict.fromkeys(["has_links", "has_mentions", "is_retweet", "is_reply", "is_nullcast"],
                      False)


def _without(fields: dict, key: str) -> dict:
    return {k: v for k, v in fields.items() if k != key}


class TestParts:
    """``run_analysis`` cuts a large corpus into one byte range per usable
    CPU and merges the ranges in file order, so every report byte and
    every line of stderr is that of the one-part run."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        texts, labels = generate_training_texts(n=300, seed=5)
        path = tmp_path_factory.mktemp("parts_model") / "model.txt"
        save_model(GenericityClassifier(min_count=1, epochs=20).fit(texts, labels).model_, path)
        return path

    def _same_as_one_part(self, argv, tmp_path, cpus, floor=1, parts=None):
        one = _analyze(argv, tmp_path / "one", 1)
        cut = _analyze(argv, tmp_path / "cut", cpus, floor)
        with _cut(cpus, floor):
            assert len(_corpus_ranges(argv[argv.index("--corpus") + 1])) == (parts or cpus)
        assert cut == one
        return one

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["annotator", "model"])
    def test_bundled_corpus(self, tmp_path, model, mode, cpus):
        argv = ["analyze", "--corpus", BUNDLED_CORPUS]
        if mode == "model":
            argv += ["--model", model]
        code, report, stderr = self._same_as_one_part(argv, tmp_path, cpus, floor=1000)
        assert code == 0
        fields = ["has_links", "has_mentions", "is_retweet", "is_reply", "is_nullcast"]
        assert stderr.splitlines() == [
            f"directive -{d.replace('_', ':')} skipped: records lack the {d!r} field"
            for d in fields
        ]

    # A first line led by a byte order mark, malformed and blank lines,
    # directive-rejected records, the first record lacking has_mentions, a
    # repeat that lacks is_nullcast, and the first record lacking the other
    # four fields; ids accepted, then repeated; ids rejected by a
    # directive, then accepted and repeated; and a long last line.
    CRAFTED = [
        "\ufeff" + json.dumps(_record("bom", **CLEAN)),
        json.dumps(_record("a", **CLEAN)),
        json.dumps(_record("r", **dict(CLEAN, is_retweet=True))),
        "not json",
        "",
        json.dumps(_record("d", "trans people are kind", **CLEAN)),
        json.dumps(_record("q", **dict(_without(CLEAN, "has_mentions"), is_reply=True,
                                       has_links=None))),
        json.dumps(_record("a", "white men are loud", **CLEAN)),
        json.dumps(_record("r", "trans people are loud", **CLEAN)),
        json.dumps(_record("d", **dict(_without(CLEAN, "is_nullcast"), is_retweet=True))),
        "   ",
        json.dumps(_record("r", "white men are kind", **CLEAN)),
        json.dumps(_record("n", "republicans are loud")),
        json.dumps(_record("m", "white men vote", **dict(CLEAN, is_reply=True))),
        json.dumps(_record("q", "trans people vote", **CLEAN)),
    ]

    @pytest.fixture
    def crafted(self, tmp_path):
        """The crafted corpus with ``\\r\\n`` line ends and no final one. Its
        last line holds between a quarter and a third of the bytes, so of
        four equal parts the last would start inside it."""
        head = "\r\n".join(self.CRAFTED)
        last = json.dumps(_record("long", "democrats " + "are loud " * (len(head) // 27), **CLEAN))
        assert 1 / 4 < len(last) / (len(head) + 2 + len(last)) < 1 / 3
        path = tmp_path / "crafted.jsonl"
        path.write_bytes(f"{head}\r\n{last}".encode("utf-8"))
        return path

    def test_crafted_corpus_matches_its_serial_counts(self, tmp_path, crafted):
        code, report, stderr = _analyze(["analyze", "--corpus", crafted], tmp_path / "o", 1)
        # accepted: a, d, r, n, q, long; rejected: the BOM line, "not json",
        # three directive rejections and three repeats
        assert json.loads(report)["ingest"] == {"accepted": 6, "rejected": 8}
        assert stderr.splitlines() == [
            "directive -has:mentions skipped: records lack the 'has_mentions' field",
            "directive -has:links skipped: records lack the 'has_links' field",
            "directive -is:retweet skipped: records lack the 'is_retweet' field",
            "directive -is:reply skipped: records lack the 'is_reply' field",
            "directive -is:nullcast skipped: records lack the 'is_nullcast' field",
        ]

    def test_every_cut_of_the_crafted_corpus(self, tmp_path, crafted, monkeypatch):
        # each line start as the one cut, then pairs of them, every third
        # line start as the first cut
        data = crafted.read_bytes()
        starts = [i + 1 for i in range(len(data)) if data[i] == ord("\n")]
        one = _analyze(["analyze", "--corpus", crafted], tmp_path / "one", 1)
        cuts = [[s] for s in starts] + [[a, b] for a in starts[::3] for b in starts if b > a]
        for cut in cuts:
            ranges = list(zip([0, *cut], [*cut, None]))
            monkeypatch.setattr(genscope.parts, "byte_ranges", lambda path, floor: ranges)
            assert _analyze(["analyze", "--corpus", crafted], tmp_path / "cut", 2) == one, cut

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_crafted_corpus(self, tmp_path, crafted, cpus):
        # floor 1: the last cut target of 4 falls inside the long last line
        self._same_as_one_part(["analyze", "--corpus", crafted], tmp_path, cpus,
                               parts=min(cpus, 3))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        records=st.lists(
            st.tuples(
                st.sampled_from("abcdefg"),
                st.sampled_from(["democrats are loud", "trans people are kind",
                                 "white men vote", "nobody here", "democrats and trans people"]),
                st.fixed_dictionaries({}, optional={
                    key: st.booleans() for key in CLEAN
                }),
                st.booleans(),
            ),
            min_size=1, max_size=40,
        ),
        cpus=st.integers(2, 4),
        model_mode=st.booleans(),
    )
    def test_random_id_streams(self, tmp_path_factory, model, records, cpus, model_mode):
        where = tmp_path_factory.mktemp("streams")
        lines = [json.dumps(_record(i, text, **fields)) if valid else f"{{{i}"
                 for i, text, fields, valid in records]
        corpus = where / "corpus.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["analyze", "--corpus", corpus] + (["--model", model] if model_mode else [])
        one = _analyze(argv, where / "one", 1)
        assert _analyze(argv, where / "cut", cpus) == one

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(
        records=st.lists(
            st.tuples(st.sampled_from("abcdefgh"), st.sampled_from(["democrats are loud",
                      "trans people are kind", "white men vote"]), st.booleans()),
            min_size=1, max_size=40,
        ),
        labels=st.lists(
            st.tuples(st.sampled_from("abcdefghij"), st.sampled_from([*SENTIMENTS, "angry"])),
            max_size=12,
        ),
        cpus=st.integers(1, 3),
        model_mode=st.booleans(),
    )
    def test_id_tables_that_collide_and_fold_at_every_id(
        self, tmp_path_factory, model, records, labels, cpus, model_mode
    ):
        # ingest's accepted ids fold from the set into runs at every second
        # id and the runs merge within eight entries, all under a 4-bit
        # digest, as does the external labels' table: report and stderr are
        # those of the plain one-part run
        where = tmp_path_factory.mktemp("tables")
        corpus, external = where / "corpus.jsonl", where / "labels.jsonl"
        corpus.write_text("".join(
            json.dumps(_record(i, text, **dict(CLEAN, is_reply=reply))) + "\n"
            for i, text, reply in records
        ), encoding="utf-8")
        external.write_text("".join(json.dumps({"id": i, "sentiment": s}) + "\n"
                                    for i, s in labels) + "not json\n", encoding="utf-8")
        argv = ["analyze", "--corpus", corpus, "--external-sentiment", external]
        argv += ["--model", model] if model_mode else []
        one = _analyze(argv, where / "one", 1)
        with mock.patch.object(genscope.corpus.ids, "digest", lambda key: hash(key) & 15), \
                mock.patch.object(genscope.corpus.ids, "CHUNK", 2), \
                mock.patch.object(genscope.corpus.ids, "RUN_CAP", 8), \
                mock.patch.object(genscope.corpus.records, "FOLD", 2):
            assert _analyze(argv, where / "small", cpus) == one

    @pytest.fixture
    def long_corpus(self, tmp_path):
        """The bundled corpus's first 600 lines."""
        lines = Path(str(BUNDLED_CORPUS)).read_bytes().splitlines(keepends=True)[:600]
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b"".join(lines))
        return path, lines

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
    def test_non_utf8_byte_in_a_later_part(self, tmp_path, long_corpus, newline):
        path, lines = long_corpus
        lines = [line.replace(b"\n", newline) for line in lines]
        lines[500] = lines[500].replace(b'"text": "', b'"text": "\xff')
        path.write_bytes(b"".join(lines))
        with _cut(2):
            (_, end), _ = _corpus_ranges(path)
        assert sum(map(len, lines[:500])) >= end
        code, report, stderr = self._same_as_one_part(["analyze", "--corpus", path], tmp_path, 2)
        assert code == 2
        assert stderr.endswith(f"error: {path}:501: not UTF-8: invalid start byte (byte 0xff)\n")

    @staticmethod
    def _failing_annotate(monkeypatch, *bad_lines):
        texts = {json.loads(line)["text"] for line in bad_lines}
        annotate = RuleAnnotator.annotate

        def failing(self, text, *args):
            if text in texts:
                raise InputError(f"cannot annotate {text!r}")
            return annotate(self, text, *args)

        monkeypatch.setattr(RuleAnnotator, "annotate", failing)

    def test_a_later_part_that_raises(self, tmp_path, long_corpus, monkeypatch):
        path, lines = long_corpus
        self._failing_annotate(monkeypatch, lines[550])
        code, report, stderr = self._same_as_one_part(["analyze", "--corpus", path], tmp_path, 2)
        assert code == 2
        assert stderr.splitlines()[-1] == f"error: cannot annotate {json.loads(lines[550])['text']!r}"
        assert "Traceback" not in stderr

    def test_the_first_part_error_wins(self, tmp_path, long_corpus, monkeypatch):
        path, lines = long_corpus
        self._failing_annotate(monkeypatch, lines[100], lines[550])
        code, report, stderr = self._same_as_one_part(["analyze", "--corpus", path], tmp_path, 2)
        assert stderr.splitlines()[-1] == f"error: cannot annotate {json.loads(lines[100])['text']!r}"

    def test_an_error_in_the_last_block_wins_over_a_later_part(
        self, tmp_path, long_corpus, monkeypatch
    ):
        # the first range is one block, run once ingest has read it and
        # before it receives the second range's error
        path, lines = long_corpus
        monkeypatch.setattr(genscope.corpus.records, "BLOCK", len(lines))
        self._failing_annotate(monkeypatch, lines[100], lines[550])
        code, report, stderr = self._same_as_one_part(["analyze", "--corpus", path], tmp_path, 2)
        assert stderr.splitlines()[-1] == f"error: cannot annotate {json.loads(lines[100])['text']!r}"

    # ids in and out of the query's lang, repeated across any cut
    MIXED = [("a", "democrats are loud", "en"), ("b", "trans people are kind", "fr"),
             ("c", "white men vote", "en"), ("d", "republicans are loud", "de"),
             ("a", "white men are loud", "en"), ("e", "trans people are loud", "en"),
             ("b", "democrats are kind", "en"), ("f", "white men are kind", "fr"),
             ("c", "democrats are loud", "en"), ("g", "trans people vote", "en")]

    @pytest.mark.parametrize("mode", ["annotator", "model"])
    def test_block_boundaries_change_nothing(self, tmp_path, model, crafted, monkeypatch, mode):
        # the bundled corpus in one range and in two; the crafted and the
        # mixed corpora in one and cut at each line start, so that a cut
        # falls inside a block of each size
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("".join(json.dumps(_record(i, text, **CLEAN, lang=lang)) + "\n"
                                 for i, text, lang in self.MIXED))
        extra = ["--model", model] if mode == "model" else []
        runs: dict = {}

        def run(corpus, cpus):
            argv = ["analyze", "--corpus", corpus, *extra]
            runs.setdefault(corpus, []).append(_analyze(argv, tmp_path / "out", cpus, 1000))

        for block in (1, 3, genscope.corpus.records.BLOCK):
            monkeypatch.setattr(genscope.corpus.records, "BLOCK", block)
            run(BUNDLED_CORPUS, 1)
            run(BUNDLED_CORPUS, 2)
            for corpus in (crafted, mixed):
                run(corpus, 1)
                data = corpus.read_bytes()
                for cut in [i + 1 for i in range(len(data)) if data[i] == ord("\n")]:
                    with monkeypatch.context() as patched:
                        patched.setattr(genscope.parts, "byte_ranges",
                                        lambda path, floor: [(0, cut), (cut, None)])
                        run(corpus, 2)
        for corpus in (BUNDLED_CORPUS, crafted, mixed):
            first = runs[corpus][0]
            assert first[0] == 0
            assert all(other == first for other in runs[corpus])

    def test_a_child_that_dies_without_a_result(self, tmp_path, long_corpus, monkeypatch):
        path, lines = long_corpus
        text = json.loads(lines[550])["text"]
        annotate = RuleAnnotator.annotate

        def dying(self, t, *args):
            if t == text:
                os._exit(1)
            return annotate(self, t, *args)

        monkeypatch.setattr(RuleAnnotator, "annotate", dying)
        code, report, stderr = _analyze(["analyze", "--corpus", path], tmp_path / "out", 2)
        assert code == 2
        assert re.fullmatch(r"error: process \d+ ended without a result", stderr.splitlines()[-1])

    def test_keyboard_interrupt_leaves_no_child(self, long_corpus, monkeypatch):
        path, _ = long_corpus

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(genscope.analysis, "ingest", interrupted)
        with _cut(4), pytest.raises(KeyboardInterrupt):
            assert len(_corpus_ranges(path)) == 4
            run_analysis(AnalysisConfig(corpus=str(path)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestByteRanges:
    def _ranges(self, tmp_path, data: bytes, cpus: int, floor: int):
        path = tmp_path / "file"
        path.write_bytes(data)
        with _cut(cpus):
            return byte_ranges(path, floor)

    def test_ranges_start_lines_and_cover_the_file(self, tmp_path):
        data = b"".join(b"x" * (i % 7) + b"\n" for i in range(200))
        for cpus in (2, 3, 4):
            for floor in (1, 50, 150):
                ranges = self._ranges(tmp_path, data, cpus, floor)
                starts = [start for start, _ in ranges]
                assert starts[0] == 0 and all(data[s - 1] == ord("\n") for s in starts[1:])
                assert [end for _, end in ranges] == [*starts[1:], None]
                assert all(b - a >= floor for a, b in zip(starts, [*starts[1:], len(data)]))
                assert len(ranges) == min(cpus, len(data) // floor)

    @pytest.mark.parametrize("data, cpus, floor", [
        (b"a\rb\rc\r" * 100, 2, 1),  # no \n to cut after
        (b"a\n" * 100, 2, 101),  # each range would hold less than the floor
        (b"a\n" + b"b" * 100, 2, 1),  # the cut would fall inside the last line
        (b"a\n" * 100, 1, 1),  # one usable CPU
    ], ids=["cr-only", "below-floor", "inside-last-line", "one-cpu"])
    def test_one_range(self, tmp_path, data, cpus, floor):
        assert self._ranges(tmp_path, data, cpus, floor) == [(0, None)]

    def test_no_fork_while_another_thread_runs(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert genscope.parts.usable_cpus() == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_pipe_or_a_missing_file_is_one_range(self, tmp_path):
        os.mkfifo(tmp_path / "fifo")
        with _cut(2):
            assert _corpus_ranges(tmp_path / "fifo") == [(0, None)]
            assert _corpus_ranges(tmp_path / "missing") == [(0, None)]
