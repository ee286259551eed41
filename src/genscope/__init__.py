"""genscope: social-generics corpus analytics.

Rule-based and trained classification of social generics in short
social-media texts, sentiment attachment, and the non-parametric
statistics needed to analyze group-level differences in use and impact.
"""

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
