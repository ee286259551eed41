"""In-process layer tracer for the benchmark's traced run.

The tracer replaces module attributes with timing wrappers at the place
each layer is called from (``genscope.analysis.partition`` rather than
``genscope.corpus.groups.partition``, because ``analysis`` imported the name),
records a span per call on a stack, and keeps per-span-name totals:

* ``calls`` and ``total_s`` (wall time inside the span), and
* ``self_s``: the span's wall time minus the part its child spans cover.

Several attributes may share one span name (``classifier.tokenize`` wraps
``tokenize`` wherever it is bound). Per-call counts sit at the same
boundaries, keyed by attribute name: ``counts["predict_score"]`` counts
calls although their time belongs to the ``classifier.score`` span.
``restore`` puts every original attribute back.

Nothing here touches the program's files: spans live in the benchmark
process only.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module or class, attribute, span name). Module-level names
# are wrapped where they are looked up at call time; methods on the class.
WRAPS = [
    ("genscope.cli", "ingest", "corpus.ingest"),
    ("genscope.analysis", "ingest", "corpus.ingest"),
    ("genscope.analysis", "partition", "corpus.partition"),
    ("genscope.corpus.groups", "match_groups", "corpus.match_groups"),
    ("genscope.cli", "tokenize", "classifier.tokenize"),
    ("genscope.analysis", "tokenize", "classifier.tokenize"),
    ("genscope.corpus.groups", "tokenize", "classifier.tokenize"),
    ("genscope.sentiment", "tokenize", "classifier.tokenize"),
    ("genscope.classifier.features", "tokenize", "classifier.tokenize"),
    ("genscope.annotator.RuleAnnotator", "annotate", "annotator.annotate"),
    ("genscope.cli", "vectorize_bow", "classifier.score"),
    ("genscope.analysis", "vectorize_bow", "classifier.score"),
    ("genscope.cli", "predict_score", "classifier.score"),
    ("genscope.analysis", "predict_score", "classifier.score"),
    ("genscope.classifier.logistic", "predict_score", "classifier.score"),
    ("genscope.classifier.features.BagOfWordsVectorizer", "fit", "classifier.vectorize"),
    ("genscope.classifier.features.BagOfWordsVectorizer", "transform", "classifier.vectorize"),
    ("genscope.classifier.logistic", "train_logistic", "classifier.train_logistic"),
    ("genscope.classifier.logistic", "loss_and_gradient", "classifier.loss_and_gradient"),
    ("genscope.cli", "load_model", "classifier.model_io"),
    ("genscope.cli", "save_model", "classifier.model_io"),
    ("genscope.analysis", "load_model", "classifier.model_io"),
    ("genscope.cli", "evaluate", "classifier.evaluate"),
    ("genscope.sentiment.SentimentProvider", "label", "sentiment.label"),
    ("genscope.sentiment", "lexicon_score", "sentiment.lexicon_score"),
    ("genscope.analysis", "chi_square_gof", "stats"),
    ("genscope.analysis", "chi_square_independence", "stats"),
    ("genscope.analysis", "odds_ratio", "stats"),
    ("genscope.analysis", "mann_whitney_u", "stats"),
    ("genscope.analysis", "kruskal_wallis", "stats"),
    ("genscope.cli", "run_analysis", "analysis.run_analysis"),
    ("genscope.cli", "recompute_check", "analysis.recompute_check"),
    ("genscope.cli", "emit_report", "reporting.emit_report"),
]

ROOT_SPAN = "cli.main"
SPANS = list(dict.fromkeys(span for _, _, span in WRAPS))


def _resolve(path: str):
    """Import ``a.b.c`` as a module, or as attribute ``C`` of module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Span-stack tracer; use as ``with Tracer() as t: t.call(main, argv)``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # observations made at span boundaries, beyond counts
        self.ingest_lines = 0
        self.ingest_rejected = 0
        self.external_labels = 0
        self.epochs = 0
        self.feature_matrix_bytes = 0
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._originals: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        try:
            for owner_path, attr, span in WRAPS:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span, attr))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------
    def _wrap(self, fn, span: str, attr: str):
        observe = _OBSERVERS.get(attr)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[span] += 1
                self.total_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                self.counts[attr] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span; returns its result."""
        return self._wrap(fn, ROOT_SPAN, fn.__name__)(*args)

    def summary(self) -> dict:
        spans = {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }
        return {
            "spans": spans,
            "counts": dict(sorted(self.counts.items())),
            "ingest_lines": self.ingest_lines,
            "ingest_rejected": self.ingest_rejected,
            "external_labels": self.external_labels,
            "epochs": self.epochs,
            "feature_matrix_bytes": self.feature_matrix_bytes,
        }


def _observe_ingest(tracer, args, kwargs, report):
    tracer.ingest_lines += report.accepted_count + report.rejected_count
    tracer.ingest_rejected += report.rejected_count


def _observe_label(tracer, args, kwargs, label):
    tracer.external_labels += label.source == "external"


def _observe_train(tracer, args, kwargs, model):
    features = args[0] if args else kwargs["features"]
    tracer.feature_matrix_bytes = max(tracer.feature_matrix_bytes, features.nbytes)
    tracer.epochs += model.epochs


_OBSERVERS = {
    "ingest": _observe_ingest,
    "label": _observe_label,
    "train_logistic": _observe_train,
}
