"""Tests for the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import math

import pytest

import gen
import run
import tracer


def small_inputs(where, seed=3, model=False):
    corpus = gen.corpus_lines(400, seed)
    gen.write_lines(where / gen.CORPUS, corpus)
    if model:
        gen.write_lines(where / gen.EXTERNAL, gen.external_labels(corpus, seed))
        gen.write_lines(where / gen.LABELED, gen.labeled_lines(300, seed))
        trained = run.run_inprocess(
            ["train", "--labeled", gen.LABELED, "--model-out", gen.MODEL, "--epochs", "5"],
            where,
        )
        assert trained.exit_code == 0
    return len(corpus)


def traced_analyze(where, workload):
    texts = run.count_lines(where / gen.CORPUS)
    with tracer.Tracer() as t:
        call = run.run_inprocess(run.analyze_argv(workload), where, t)
    problems, digest = run.check_analyze(call, where, texts)
    assert problems == []
    report = json.loads((where / "out" / "report.json").read_text())
    return t, report, digest


def test_generator_is_deterministic_per_seed():
    for make in (
        lambda s: gen.corpus_lines(500, s),
        lambda s: gen.labeled_lines(200, s),
        lambda s: gen.external_labels(gen.corpus_lines(100, s), s),
    ):
        assert make(11) == make(11)
        assert make(11) != make(12)


def test_generator_adds_ingest_noise():
    lines = gen.corpus_lines(3000, 4)
    records, malformed = [], 0
    for line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            malformed += 1
    ids = [r.get("id") for r in records]
    assert malformed > 0
    assert len(ids) - len(set(ids)) > 10
    assert all("is_retweet" in r and "has_links" in r for r in records if "text" in r)
    texts = " ".join(r.get("text", "") for r in records)
    for marker in ("https://", "@user", "#", "🤔"):
        assert marker in texts


def test_failed_call_and_corrupt_report_count_as_failures(tmp_path):
    texts = small_inputs(tmp_path)
    good = run.run_inprocess(run.analyze_argv("analyze-annotator"), tmp_path)
    problems, digest = run.check_analyze(good, tmp_path, texts)
    assert problems == [] and digest

    failed = run.Call(2, 0.1, 0, "", "error: boom")
    assert run.check_analyze(failed, tmp_path, texts)[0]

    path = tmp_path / "out" / "report.json"
    report = json.loads(path.read_text())
    report["ingest"]["accepted"] += 1
    path.write_text(json.dumps(report))
    assert run.check_analyze(good, tmp_path, texts)[0]
    path.write_text("{ truncated")
    assert run.check_analyze(good, tmp_path, texts)[0]

    # through Run: a nonzero exit and a report that changed between calls
    calls = iter([good, failed])
    bench = run.Run("analyze-annotator", tmp_path, texts)
    bench.op(lambda argv, cwd: run.run_inprocess(argv, cwd))
    bench.op(lambda argv, cwd: next(calls))
    bench.op(lambda argv, cwd: next(calls))
    assert (bench.attempted, bench.failed) == (3, 1)
    report["ingest"]["accepted"] -= 1
    report["h1"] = {}
    path.write_text(json.dumps(report))
    bench.op(lambda argv, cwd: good)
    assert (bench.attempted, bench.failed) == (4, 2)
    assert any("differs" in p for p in bench.problems)


def test_eval_check_needs_accuracy_floor():
    ok = run.Call(0, 0.1, 0, "accuracy = 0.9300, auc = 0.99, f1 = 0.9", "")
    low = run.Call(0, 0.1, 0, "accuracy = 0.5000, auc = 0.5, f1 = 0.5", "")
    assert run.check_eval(ok) == []
    assert run.check_eval(low)
    assert run.check_eval(run.Call(0, 0.1, 0, "", ""))


@pytest.mark.parametrize("workload", ["analyze-annotator", "analyze-model"])
def test_traced_and_untraced_reports_are_byte_identical(tmp_path, workload):
    import genscope.analysis

    small_inputs(tmp_path, model=workload == "analyze-model")
    untraced = run.run_inprocess(run.analyze_argv(workload), tmp_path)
    assert untraced.exit_code == 0
    plain = (tmp_path / "out" / "report.json").read_bytes()
    original = genscope.analysis.partition
    _, _, digest = traced_analyze(tmp_path, workload)
    assert (tmp_path / "out" / "report.json").read_bytes() == plain
    assert genscope.analysis.partition is original


def test_counts_reconcile_and_self_times_add_up(tmp_path):
    small_inputs(tmp_path, model=True)
    t, report, _ = traced_analyze(tmp_path, "analyze-annotator")
    analyzed = report["descriptives"]["analyzed_tweets"]
    assert t.counts["annotate"] == analyzed
    assert t.counts["predict_score"] == 0
    assert t.counts["label"] == analyzed
    assert t.ingest_lines == report["ingest"]["accepted"] + report["ingest"]["rejected"]

    t, report, _ = traced_analyze(tmp_path, "analyze-model")
    analyzed = report["descriptives"]["analyzed_tweets"]
    assert t.counts["predict_score"] == analyzed
    assert t.counts["annotate"] == 0
    assert t.external_labels > 0

    metrics = run.layer_metrics(t, 400)
    self_times = [v for name, (v, unit) in metrics.items() if name.endswith(".self_s")]
    wall = t.total_s[tracer.ROOT_SPAN]
    assert math.isclose(sum(self_times) + metrics["trace.unattributed_s"][0], wall,
                        rel_tol=1e-9)
    assert set(t.self_s) <= set(tracer.SPANS) | {tracer.ROOT_SPAN}


def test_every_metric_is_declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    t = tracer.Tracer()
    declared = {m["name"] for m in spec["per_layer"]}
    reported = set(run.layer_metrics(t, 1)) | {"trace.wall_s", "trace.overhead_ratio"}
    assert reported == declared
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_a_crash_in_process_fails_the_operation(tmp_path, monkeypatch):
    import genscope.cli

    texts = small_inputs(tmp_path)

    def crash(config):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(genscope.cli, "run_analysis", crash)
    call = run.run_inprocess(run.analyze_argv("analyze-annotator"), tmp_path)
    assert call.exit_code != 0 and "ZeroDivisionError" in call.stderr
    assert run.check_analyze(call, tmp_path, texts)[0]


def test_compare_verdicts():
    import compare

    base = {s: [10.0 + 0.1 * s] for s in range(10)}

    def scaled(side, factor):
        return {s: [v * factor for v in values] for s, values in side.items()}

    assert compare.verdict(base, scaled(base, 0.5), "lower", 0.1) == "better"
    assert compare.verdict(base, scaled(base, 1.5), "lower", 0.1) == "worse"
    assert compare.verdict(base, scaled(base, 1.5), "higher", 0.1) == "better"
    assert compare.verdict(base, dict(base), "lower", 0.1) == "unchanged"
    other_seeds = {s + 100: values for s, values in scaled(base, 0.5).items()}
    assert compare.verdict(base, other_seeds, "lower", 0.1) == "unresolved"
    noisy = {s: [10.0 * (1 + s % 2)] for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1) == "unresolved"


def test_compare_keeps_every_run_of_a_seed(tmp_path):
    import compare

    path = tmp_path / "runs.jsonl"
    with open(path, "w") as fh:
        for value in (1.0, 2.0, 3.0):
            fh.write(json.dumps({
                "workload": "train", "trace": 0, "seed": 1, "output_sha256": "x",
                "correct": True, "attempted": 1, "failed": 0,
                "samples": {"reference_s": [0.5, value]},
                "metrics": {"wall_s": {"value": value, "unit": "s"}},
            }) + "\n")
    runs = compare.load(str(path))["runs"][("train", 0)]
    assert runs["wall_s"] == {1: [1.0, 2.0, 3.0]}
    assert runs[compare.REFERENCE] == {1: [0.75, 1.25, 1.75]}


def test_calibration_brackets_work_with_reference_runs(monkeypatch, tmp_path):
    times = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(run, "run_reference", lambda cwd: next(times))
    calibration = run.Calibration(tmp_path)
    calibration.start()
    assert calibration.around() == 3.0
    assert calibration.around() == 2.5
    assert calibration.reference_s == [2.0, 4.0, 1.0]


def test_failed_set_up_still_prints_a_result(monkeypatch, capsys):
    def broken(workload, seed, where):
        raise RuntimeError("set-up training failed")

    monkeypatch.setattr(run, "set_up", broken)
    monkeypatch.setattr(run, "run_reference", lambda cwd: 1.0)
    code = run.main(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
