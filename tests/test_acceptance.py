"""Acceptance gate: the binding criteria, one test per criterion.

Each test prints one `[criterion N] PASS/FAIL` line (visible with -s or
in captured output) and enforces the stated tolerances and runtime
budgets. Oracles live in tests/oracles.py and are independent of the
library code paths they check.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from genscope.analysis import load_published_tables, recompute_check
from genscope.annotator import RuleAnnotator
from genscope.classifier import (
    GenericityClassifier,
    evaluate,
    load_model,
    loss_and_gradient,
    predict_score,
    save_model,
)
from genscope.cli import main
from genscope.stats import (
    ContingencyTable,
    chi_square_gof,
    chi_square_independence,
    chi_square_sf,
    kruskal_wallis,
    mann_whitney_u,
    normal_sf,
    odds_ratio,
    rank_with_ties,
)
from genscope.synth import generate_training_texts

from oracles import (
    central_difference,
    gamma_q_oracle,
    mann_whitney_u_bruteforce,
    normal_sf_oracle,
)

GOLD = Path(__file__).parent / "data" / "annotator_gold"
BUNDLED_CORPUS = Path(__file__).parents[1] / "src" / "genscope" / "data" / "synthetic_corpus.jsonl"


def _run(num, description, budget_seconds, body):
    started = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - started
        assert elapsed < budget_seconds, (
            f"runtime {elapsed:.2f}s exceeded budget {budget_seconds}s"
        )
    except BaseException:
        print(f"[criterion {num:>2}] FAIL  {description}")
        raise
    print(f"[criterion {num:>2}] PASS  {description} ({elapsed:.2f}s)")


def _gold(name):
    return [
        line
        for line in (GOLD / name).read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def test_criterion_01_h1_goodness_of_fit_golden():
    def body():
        res = chi_square_gof([239677, 831588])
        assert res.chi2 == pytest.approx(327051.32, abs=1.0)
        assert res.df == 1
        assert res.p < 1e-10

    _run(1, "H1 golden: generic/non-generic goodness of fit", 1.0, body)


def test_criterion_02_h3_pairwise_goldens():
    def body():
        pg = chi_square_independence(
            ContingencyTable(np.array([[144789, 539737], [31846, 143549]]))
        )
        assert pg.chi2 == pytest.approx(767.32, abs=1.0)
        assert pg.phi == pytest.approx(0.030, abs=0.002)
        assert pg.phi > 0
        orr = odds_ratio(144789, 539737, 31846, 143549)
        assert orr.odds_ratio == pytest.approx(1.21, abs=0.005)
        assert orr.ci_low == pytest.approx(1.19, abs=0.01)
        assert orr.ci_high == pytest.approx(1.23, abs=0.01)

        pe = chi_square_independence(
            ContingencyTable(np.array([[144789, 539737], [63042, 148302]]))
        )
        assert pe.chi2 == pytest.approx(6824.62, abs=2.0)
        orr = odds_ratio(144789, 539737, 63042, 148302)
        assert orr.odds_ratio == pytest.approx(0.63, abs=0.005)

    _run(2, "H3 golden: pairwise generic-proportion tables", 1.0, body)


def test_criterion_03_h4_sentiment_goldens():
    def body():
        cells = np.array(
            [[5027, 8920, 5786], [23229, 6987, 11443], [116533, 15939, 45813]]
        )
        omni = chi_square_independence(ContingencyTable(cells))
        assert omni.chi2 == pytest.approx(23019.12, abs=2.0)
        assert omni.df == 4
        assert omni.cramers_v == pytest.approx(0.22, abs=0.005)

        pol = (116533, 28256)
        gen = (15939, 15907)
        eth = (45813, 17229)

        res = chi_square_independence(ContingencyTable(np.array([pol, gen])))
        assert res.chi2 == pytest.approx(12894.84, abs=2.0)
        assert res.phi == pytest.approx(0.27, abs=0.005)
        orr = odds_ratio(pol[0], pol[1], gen[0], gen[1])
        assert orr.odds_ratio == pytest.approx(4.12, abs=0.02)
        assert orr.ci_low == pytest.approx(4.01, abs=0.02)
        assert orr.ci_high == pytest.approx(4.22, abs=0.02)

        res = chi_square_independence(ContingencyTable(np.array([pol, eth])))
        assert res.chi2 == pytest.approx(1568.65, abs=2.0)
        orr = odds_ratio(pol[0], pol[1], eth[0], eth[1])
        assert orr.odds_ratio == pytest.approx(1.55, abs=0.01)

        res = chi_square_independence(ContingencyTable(np.array([gen, eth])))
        assert res.chi2 == pytest.approx(4763.70, abs=2.0)
        orr = odds_ratio(gen[0], gen[1], eth[0], eth[1])
        assert orr.odds_ratio == pytest.approx(0.38, abs=0.005)

    _run(3, "H4 golden: sentiment-by-group tables", 1.0, body)


def test_criterion_04_effect_size_identities():
    def body():
        n = 1_071_265
        assert 11.68 / math.sqrt(n) == pytest.approx(0.0113, abs=0.0005)
        assert 24.177 / math.sqrt(n) == pytest.approx(0.0234, abs=0.0005)
        n = 239_677
        assert 2274.554 / (n - 1) == pytest.approx(0.00949, abs=0.0005)
        assert 1972.685 / (n - 1) == pytest.approx(0.00823, abs=0.0005)

    _run(4, "effect-size identities r = |z|/sqrt(N), eps2 = H/(N-1)", 1.0, body)


def test_criterion_05_rank_test_oracle_suite():
    def body():
        rng = np.random.RandomState(20240501)
        for _ in range(500):
            n1 = rng.randint(1, 31)
            n2 = rng.randint(1, 31)
            a = rng.randint(0, 12, size=n1).astype(float)
            b = rng.randint(0, 12, size=n2).astype(float)
            res = mann_whitney_u(a, b)
            assert res.u1 == mann_whitney_u_bruteforce(a, b)

        checked = 0
        while checked < 200:
            n1 = rng.randint(2, 31)
            n2 = rng.randint(2, 31)
            a = rng.randint(0, 8, size=n1).astype(float)
            b = rng.randint(0, 8, size=n2).astype(float)
            mw = mann_whitney_u(a, b)
            if mw.degenerate:
                continue
            kw = kruskal_wallis([a, b])
            assert kw.h == pytest.approx(mw.z**2, abs=1e-6)
            checked += 1

        a = rng.randint(0, 40, size=25).astype(float)
        b = rng.randint(0, 40, size=18).astype(float)
        base = mann_whitney_u(a, b)
        base_ranks = rank_with_ties(np.concatenate([a, b]))
        for f in (lambda x: x**3, np.exp):
            res = mann_whitney_u(f(a), f(b))
            assert res.u1 == base.u1
            assert (
                rank_with_ties(np.concatenate([f(a), f(b)])) == base_ranks
            ).all()

    _run(5, "rank-test oracle suite (500 MW + 200 KW + invariance)", 10.0, body)


def test_criterion_06_special_function_accuracy():
    def body():
        assert chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-7)
        # agree with the independent high-precision series oracle
        assert chi_square_sf(3.841459, 1) == pytest.approx(
            float(gamma_q_oracle(1, 3.841459 / 2)), abs=1e-10
        )
        assert normal_sf(1.959964) == pytest.approx(
            float(normal_sf_oracle(1.959964)), abs=1e-12
        )

    _run(6, "special-function accuracy at the alpha quantiles", 1.0, body)


def test_criterion_07_classifier_property_suite(tmp_path):
    def body():
        texts, labels = generate_training_texts(n=1000, seed=13)
        split = int(0.8 * len(texts))
        clf = GenericityClassifier(min_count=2, epochs=500, seed=42)
        clf.fit(texts[:split], labels[:split])
        metrics = evaluate(
            clf.predict_proba(texts[split:]), labels[split:], threshold=0.5
        )
        assert metrics.binary_accuracy >= 0.90
        assert metrics.auc >= 0.95

        rng = np.random.RandomState(99)
        for _ in range(20):
            x = rng.randn(20, 10)
            y = (rng.rand(20) > 0.5).astype(float)
            w = rng.randn(10)
            bias = float(rng.randn())
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            _, grad_w, grad_b = loss_and_gradient(w, bias, x, y, l2)

            def f(theta):
                return loss_and_gradient(np.array(theta[:-1]), theta[-1], x, y, l2)[0]

            numeric = central_difference(f, list(w) + [bias], step=1e-5)
            for got, want in zip(list(grad_w) + [grad_b], numeric):
                scale = max(abs(got), abs(want), 1e-8)
                assert abs(got - want) / scale < 1e-4

        again = GenericityClassifier(min_count=2, epochs=500, seed=42)
        again.fit(texts[:split], labels[:split])
        assert again.model_.weights.tobytes() == clf.model_.weights.tobytes()
        assert again.model_.bias == clf.model_.bias

        path = tmp_path / "model.txt"
        save_model(clf.model_, path)
        loaded = load_model(path)
        before = clf.predict_proba(texts[split:])
        vec = clf.vectorizer_.transform(texts[split:])
        after = predict_score(loaded, vec)
        assert before.tobytes() == after.tobytes()

    _run(7, "classifier suite: held-out quality, gradient, determinism, io", 60.0, body)


def test_criterion_08_annotator_corpus_check():
    def body():
        annotator = RuleAnnotator()
        generic = _gold("generic_tweets.txt")
        assert len(generic) == 12
        for text in generic:
            assert annotator.annotate(text).is_generic, text

        excluded = _gold("excluded_tweets.txt")
        assert len(excluded) == 7
        for text in excluded:
            assert not annotator.annotate(text).is_generic, text

        included = _gold("included_structures.txt")
        known_misses = set(_gold("known_misses.txt"))
        misses = [t for t in included if not annotator.annotate(t).is_generic]
        assert len(included) - len(misses) >= 0.9 * len(included)
        assert set(misses) <= known_misses, f"unlisted misses: {misses}"

    _run(8, "annotator corpus check (12 generic, 7 excluded, >=90% included)", 1.0, body)


def test_criterion_09_end_to_end_analyze(tmp_path, capsys):
    def body():
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["analyze", "--corpus", str(BUNDLED_CORPUS), "--out", str(out_a)]) == 0
        assert main(["analyze", "--corpus", str(BUNDLED_CORPUS), "--out", str(out_b)]) == 0

        report = json.loads((out_a / "report.json").read_text())
        for block in ("descriptives", "h1", "h2", "h3", "h4", "h5"):
            assert block in report
        assert "test" in report["h1"]
        assert "likes" in report["h2"] and "retweets" in report["h2"]
        assert "omnibus" in report["h4"]
        assert "generic" in report["h5"] and "generic_negative" in report["h5"]
        hists = report["descriptives"]["score_histograms"]
        assert {"overall", "political", "gender", "ethnic"} <= set(hists)

        assert recompute_check(report) == []

        for name in ("report.json", "report.md", "genericity_hist_overall.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    _run(9, "end-to-end analyze on the bundled corpus", 30.0, body)


def test_criterion_10_reproduce_subcommand(tmp_path, capsys):
    def body():
        assert main(["reproduce"]) == 0

        tables = load_published_tables()
        tables["h3.gender.generic"] += 1000
        perturbed = tmp_path / "tables.csv"
        perturbed.write_text(
            "key,value\n" + "\n".join(f"{k},{v}" for k, v in tables.items()) + "\n"
        )
        assert main(["reproduce", "--tables", str(perturbed)]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "h3" in out.lower()

    _run(10, "reproduce subcommand: exit 0 bundled, exit 3 perturbed", 10.0, body)
