"""genscope: social-generics corpus analytics.

Rule-based and trained classification of social generics in short
social-media texts, sentiment attachment, and the non-parametric
statistics needed to analyze group-level differences in use and impact.

``import genscope`` starts numpy and loads no layer: each name in
``__all__`` imports its submodule (``annotator``, ``classifier``,
``corpus``, ``sentiment`` or ``stats``) when it is first read, and
``corpus`` and ``stats`` load their own submodules in the same way. The
commands import what they run, so only ``analyze``, ``report`` and
``reproduce`` load the analysis stack (``analysis``, ``reporting``,
``sentiment``, ``parts``, the group partition, the query parser and the
statistical tests), and only ``annotate``, ``label`` and annotator-mode
``analyze`` load the rule annotator. Both ``python -m genscope`` and the
``genscope`` script run ``__main__.main``, which imports and runs
``cli.entry``; that freezes the heap once the command is done, so the
interpreter's last garbage collections at exit skip it.
"""

import importlib
import os

# Before numpy is first imported: genscope's numpy work is bincounts, sorts
# and 1-D dot products, so an OpenBLAS thread pool only costs start-up time
# (about 70 ms), and a pool split of a long dot product would make its last
# bits depend on the host's CPU count. A value the user set still wins.
# OpenBLAS reads the variable only when numpy loads it, so it is set just
# for that import and the caller's environment is left as it was.
if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

# each re-export and the submodule that ``__getattr__`` imports it from
_EXPORTS = {
    "AnnotatorVerdict": "annotator",
    "RuleAnnotator": "annotator",
    "BagOfWordsVectorizer": "classifier",
    "GenericityClassifier": "classifier",
    "GenericityModel": "classifier",
    "evaluate": "classifier",
    "load_model": "classifier",
    "predict_score": "classifier",
    "roc_auc": "classifier",
    "save_model": "classifier",
    "tokenize": "classifier",
    "train_logistic": "classifier",
    "GroupLexicon": "corpus",
    "QueryAst": "corpus",
    "Tweet": "corpus",
    "compile_terms": "corpus",
    "ingest": "corpus",
    "load_group_lexicon": "corpus",
    "match_groups": "corpus",
    "parse_query": "corpus",
    "partition": "corpus",
    "SentimentLabel": "sentiment",
    "SentimentProvider": "sentiment",
    "lexicon_score": "sentiment",
    "stats": "stats",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    """Import the submodule that ``name`` is re-exported from (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
