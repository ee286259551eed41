"""Command-line interface.

Subcommands: ingest, annotate, train, eval, classify, analyze, report,
label, reproduce. Exit codes: 0 success, 1 usage error, 2 data/schema
error, 3 reproduction-suite failure, 130 interrupted (Ctrl-C). Every input
file is read through ``errors.Lines``, which names a bad line's path and line.

``analyze`` and ``train`` run on every usable CPU: each cuts its input
file into byte ranges with ``parts.byte_ranges``, where every range gets
its floor of bytes (``parts.ANALYZE_FLOOR`` for the corpus,
``parts.TRAIN_FLOOR`` for the labeled file), and works on each range
after the first in a child forked by ``parts.forked``. Both merge the
ranges in file order, so their output is that of one process.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

from .base import check_threshold
from .classifier import (
    GenericityClassifier,
    evaluate,
    load_bow_model,
    load_model,  # unused here; the benchmark tracer wraps it
    predict_score,  # unused here; the benchmark tracer wraps it
    save_model,
    score_tokens,
    token_ids,
    tokenize,
    vectorize_bow,  # unused here; the benchmark tracer wraps it
)
from .classifier.logistic import (
    DEFAULT_EPOCHS,
    DEFAULT_L2,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MIN_COUNT,
    DEFAULT_SEED,
    DEFAULT_THRESHOLD,
)
from .corpus.records import ingest, json_values, jsonl_writer
from .errors import GenscopeError, InputError, Lines, SchemaError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REPRODUCTION = 3


# The benchmark tracer wraps these three names here, so they stay functions
# of this module, looked up when called. Each imports its layer only then, so
# that only analyze, report and reproduce load the analysis stack.
def run_analysis(config):
    from . import analysis
    return analysis.run_analysis(config)


def recompute_check(report):
    from . import analysis
    return analysis.recompute_check(report)


def emit_report(report, fmt, out_dir):
    from . import reporting
    return reporting.emit_report(report, fmt, out_dir)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# flags that several subcommands read; each subcommand declares only the
# ones it reads, so any other flag is a usage error
_SHARED_FLAGS = {
    "seed": {"type": int, "help": "training / analysis seed"},
    "threshold": {"type": float, "help": "genericity decision threshold"},
    "format": {"choices": ("csv", "markdown"), "help": "report table format"},
    "out": {"help": "output directory"},
}


def _add_flags(parser, *names, **defaults) -> None:
    for name in names:
        parser.add_argument(f"--{name}", default=defaults.get(name), **_SHARED_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="genscope", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a JSONL corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--query", help="query file; enables directive filtering")
    _add_flags(p, "out")

    p = sub.add_parser("annotate", help="rule-annotate a corpus")
    p.add_argument("--corpus", required=True)
    _add_flags(p, "out")

    p = sub.add_parser("train", help="train the genericity classifier")
    p.add_argument("--labeled", required=True, help="JSONL with text and label fields")
    p.add_argument("--model-out", required=True)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--learning-rate", type=float, default=DEFAULT_LEARNING_RATE)
    p.add_argument("--l2", type=float, default=DEFAULT_L2)
    _add_flags(p, "seed", "threshold", seed=DEFAULT_SEED, threshold=DEFAULT_THRESHOLD)

    p = sub.add_parser("eval", help="evaluate a model on labeled data")
    p.add_argument("--labeled", required=True)
    p.add_argument("--model", required=True)
    _add_flags(p, "threshold")

    p = sub.add_parser("classify", help="score a corpus with a model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    _add_flags(p, "threshold", "out")

    p = sub.add_parser("analyze", help="run the full analysis pipeline")
    p.add_argument("--config", help="key = value config file")
    _add_flags(p, "seed", "threshold", "format", "out")
    p.add_argument("--corpus")
    p.add_argument("--model")
    p.add_argument("--query")
    p.add_argument("--group-lexicon")
    p.add_argument("--external-sentiment")
    p.add_argument("--valence-lexicon")

    p = sub.add_parser("report", help="re-emit tables from report.json")
    p.add_argument("--report", required=True)
    _add_flags(p, "format", "out", format="markdown")

    p = sub.add_parser("label", help="interactive labeling session")
    p.add_argument("--corpus", required=True)
    p.add_argument("--limit", type=int, default=sys.maxsize)
    _add_flags(p, "out")

    p = sub.add_parser("reproduce", help="recompute published statistics")
    p.add_argument("--tables", help="published-count CSV (bundled file by default)")

    return parser


def _labeled_texts(path, labels: bytearray, start: int = 0, end: int | None = None):
    """Each text of the labeled file's lines from byte ``start`` up to byte
    ``end``, with its label appended to ``labels`` as one byte."""
    lines = Lines(path, start, end)
    for obj in json_values(lines):
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("text"), str)
            and obj.get("label") in (0, 1)
        ):
            raise GenscopeError(f"{path}:{lines.number}: need 'text' and binary 'label'")
        labels.append(obj["label"] == 1)
        yield obj["text"]


def _counted_range(path, start: int, end: int | None):
    """The token ids (``token_ids``) and the labels, one byte each, of the
    labeled file's bytes ``start`` to ``end``: train's work on a range."""
    labels = bytearray()
    return token_ids(_labeled_texts(path, labels, start, end)), labels


def _cmd_ingest(args) -> int:
    query = None
    if args.query:
        from .corpus.query import load_query  # loaded only when a query is given

        query = load_query(args.query)
    if args.out:
        path = Path(args.out) / "accepted.jsonl"
        with jsonl_writer(path) as write:
            report = ingest(args.corpus, lambda tweets: write(map(vars, tweets)), query)
    else:
        report = ingest(args.corpus, lambda tweets: None, query)
    print(f"accepted: {report.accepted_count}")
    print(f"rejected: {report.rejected_count}")
    for reason, count in report.rejected.most_common():
        print(f"  {count:>6}  {reason}")
    if args.out:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_annotate(args) -> int:
    from .annotator import RuleAnnotator  # loaded only by the commands that run it

    annotator = RuleAnnotator()
    path = Path(args.out or "out") / "annotations.jsonl"
    kinds: Counter = Counter()
    reasons: Counter = Counter()
    with jsonl_writer(path) as write:

        def annotate(tweet):
            verdict = annotator.annotate(tweet.text)
            if verdict.is_generic:
                kinds[verdict.kind] += 1
            else:
                reasons[verdict.exclusion_reason] += 1
            return {
                "id": tweet.id,
                "label": verdict.label,
                "kind": verdict.kind,
                "reason": verdict.exclusion_reason,
                "rule": verdict.matched_rule,
            }

        report = ingest(args.corpus, lambda tweets: write(map(annotate, tweets)))
    print(f"annotated {report.accepted_count} tweets -> {path}")
    for name, counter in (("kinds", kinds), ("exclusion reasons", reasons)):
        print(f"{name}:")
        for key, count in counter.most_common():
            print(f"  {count:>6}  {key}")
    return EXIT_OK


def _cmd_train(args) -> int:
    from .parts import TRAIN_FLOOR, byte_ranges, forked

    clf = GenericityClassifier(  # checks the flags before the file is read
        min_count=args.min_count,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        l2=args.l2,
        seed=args.seed,
        threshold=args.threshold,
    )
    # this process counts the first range while a child counts each later
    # one; the first range's error is raised first, then each child's in order
    (_, end), *later = byte_ranges(args.labeled, TRAIN_FLOOR)
    with forked(partial(_counted_range, args.labeled), later) as children:
        counted = [_counted_range(args.labeled, 0, end)]
        counted += (child.receive() for child in children)
        parts = [ids for ids, _ in counted]
        labels = np.frombuffer(b"".join(labels for _, labels in counted), dtype=np.uint8)
        if not labels.size:
            raise GenscopeError(f"{args.labeled}: no labeled examples")
        # the children exit while the descent runs, so leaving the block
        # reaps them without waiting
        scores = clf.fit_predict_proba(parts, labels)
    save_model(clf.model_, args.model_out)
    metrics = evaluate(scores, labels, threshold=clf.threshold)
    print(f"trained on {labels.size} examples, vocab size {clf.model_.vocab.size}")
    print(f"final loss: {clf.model_.loss_history[-1]:.6f}")
    print(f"train {metrics.summary()}")
    print(f"wrote {args.model_out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.threshold is not None:
        check_threshold(args.threshold)
    labels = bytearray()
    texts = list(_labeled_texts(args.labeled, labels))
    if not texts:
        raise GenscopeError(f"{args.labeled}: no labeled examples")
    model = load_bow_model(args.model)
    scores = score_tokens(model, map(tokenize, texts))
    tau = args.threshold if args.threshold is not None else model.threshold
    metrics = evaluate(scores, labels, threshold=tau)
    print(metrics.summary())
    print(
        f"confusion: TP={metrics.tp} FP={metrics.fp} TN={metrics.tn} FN={metrics.fn} "
        f"(threshold {tau})"
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    if args.threshold is not None:
        check_threshold(args.threshold)  # before the output directory is made
    model = load_bow_model(args.model)
    tau = args.threshold if args.threshold is not None else model.threshold
    path = Path(args.out or "out") / "scores.jsonl"
    with jsonl_writer(path) as write:

        def write_scores(tweets):
            # a block's tweets, scored in one call
            scores = score_tokens(model, [tokenize(tweet.text) for tweet in tweets])
            write({"id": tweet.id, "score": score,
                   "label": "generic" if score >= tau else "non_generic"}
                  for tweet, score in zip(tweets, scores))

        report = ingest(args.corpus, write_scores)
    print(f"scored {report.accepted_count} tweets at threshold {tau} -> {path}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .analysis import AnalysisConfig

    overrides = {
        "corpus": args.corpus,
        "model": args.model,
        "query": args.query,
        "group_lexicon": args.group_lexicon,
        "external_sentiment": args.external_sentiment,
        "valence_lexicon": args.valence_lexicon,
        "out_dir": args.out,
        "threshold": args.threshold,
        "seed": args.seed,
        "format": args.format,
    }
    if args.config:
        config = AnalysisConfig.from_file(args.config, **overrides)
    else:
        if not args.corpus:
            raise GenscopeError("analyze needs --corpus (or a --config naming one)")
        config = AnalysisConfig(**{k: v for k, v in overrides.items() if v is not None})
    report = run_analysis(config)
    problems = recompute_check(report)
    if problems:
        raise GenscopeError(
            "internal consistency check failed: " + "; ".join(problems)
        )
    written = emit_report(report, config.format, config.out_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    from .reporting import REPORT_BLOCKS, render_markdown

    text = Lines(args.report).text()
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{args.report}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # an integer too long to convert
        raise SchemaError(f"{args.report}: {exc}") from None
    not_a_report = SchemaError(
        f"{args.report}: not a genscope report (need a JSON object with "
        f"the blocks {', '.join(REPORT_BLOCKS)} and the keys they hold)"
    )
    if not isinstance(report, dict) or any(
        not isinstance(report.get(block), dict) for block in REPORT_BLOCKS
    ):
        raise not_a_report
    try:
        render_markdown(report)  # checks the keys in either format; CSV flattens any JSON
        # hostile numbers can overflow, divide by zero or fail a test's input check
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            problems = recompute_check(report)
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError, InputError):
        raise not_a_report from None
    if problems:
        raise SchemaError(f"{args.report}: inconsistent report: {problems[0]}")
    try:
        written = emit_report(report, args.format, args.out or Path(args.report).parent)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError):
        raise not_a_report from None
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_label(args) -> int:
    from .labeling import label_session

    if args.limit < 1:
        raise InputError(f"--limit must be at least 1, not {args.limit}")
    tweets: list = []
    ingest(args.corpus, lambda block: tweets.extend(block[: args.limit - len(tweets)]))
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    result = label_session(tweets, out / "labeled.jsonl")
    print(
        f"\nlabeled {result.labeled} tweets "
        f"(skipped {result.skipped}, already done {result.resumed}) -> {result.path}"
    )
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    from .analysis import reproduce_published

    rep = reproduce_published(args.tables)
    for check in rep.checks:
        print(check.line())
    if not rep.all_passed:
        failed = sum(1 for c in rep.checks if not c.passed)
        print(f"{failed} of {len(rep.checks)} checks FAILED")
        return EXIT_REPRODUCTION
    print(f"all {len(rep.checks)} checks passed")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "annotate": _cmd_annotate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "analyze": _cmd_analyze,
    "report": _cmd_report,
    "label": _cmd_label,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (GenscopeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except UnicodeDecodeError as exc:
        print(f"error: an input file is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt:
        # each command's writers have removed their partial files, and
        # analyze has reaped its children, on the way out
        print("error: interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a Ctrl-C


def entry() -> int:
    """The program, ``main`` on ``sys.argv``: what ``genscope.__main__``
    runs for ``python -m genscope`` and the ``genscope`` script. Once the
    command is done, every object is frozen out of the garbage collector,
    so the interpreter's last collections at exit skip the heap that numpy
    and the command built. Modules are still torn down, atexit handlers
    still run and the standard streams are still flushed, except after an
    interrupt under ``python -m``, which flushes the streams and exits at
    once. An object left in a reference cycle is not finalized, so each
    command closes its own files. ``main`` never freezes and never exits,
    for callers that go on running."""
    try:
        return main()
    finally:
        gc.freeze()
