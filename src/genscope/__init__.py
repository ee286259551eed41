"""genscope: social-generics corpus analytics.

Rule-based and trained classification of social generics in short
social-media texts, sentiment attachment, and the non-parametric
statistics needed to analyze group-level differences in use and impact.
"""

import os

# Before numpy is first imported: genscope's numpy work is bincounts, sorts
# and 1-D dot products, so an OpenBLAS thread pool only costs start-up time
# (about 70 ms), and a pool split of a long dot product would make its last
# bits depend on the host's CPU count. A value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .annotator import AnnotatorVerdict, RuleAnnotator
from .classifier import (
    BagOfWordsVectorizer,
    GenericityClassifier,
    GenericityModel,
    evaluate,
    load_model,
    predict_score,
    roc_auc,
    save_model,
    tokenize,
    train_logistic,
)
from .corpus import (
    GroupLexicon,
    QueryAst,
    Tweet,
    compile_terms,
    ingest,
    load_group_lexicon,
    match_groups,
    parse_query,
    partition,
)
from .sentiment import SentimentLabel, SentimentProvider, lexicon_score
from . import stats

__all__ = [
    "__version__",
    "AnnotatorVerdict",
    "RuleAnnotator",
    "BagOfWordsVectorizer",
    "GenericityClassifier",
    "GenericityModel",
    "evaluate",
    "load_model",
    "predict_score",
    "roc_auc",
    "save_model",
    "tokenize",
    "train_logistic",
    "GroupLexicon",
    "QueryAst",
    "Tweet",
    "compile_terms",
    "ingest",
    "load_group_lexicon",
    "match_groups",
    "parse_query",
    "partition",
    "SentimentLabel",
    "SentimentProvider",
    "lexicon_score",
    "stats",
]
