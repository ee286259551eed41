"""Feature extraction, logistic-regression genericity scoring, evaluation."""

from .features import (
    BagOfWordsVectorizer,
    CsrMatrix,
    Vocabulary,
    build_vocab,
    csr_from_columns,
    tokenize,
    vectorize_bow,
    EMOJI_TOKEN,
    URL_TOKEN,
)
from .logistic import (
    GenericityClassifier,
    GenericityModel,
    loss_and_gradient,
    predict_score,
    sigmoid,
    train_logistic,
)
from .metrics import EvalMetrics, evaluate, roc_auc
from .model_io import dumps_model, load_model, loads_model, save_model

__all__ = [
    "BagOfWordsVectorizer",
    "CsrMatrix",
    "Vocabulary",
    "build_vocab",
    "csr_from_columns",
    "tokenize",
    "vectorize_bow",
    "EMOJI_TOKEN",
    "URL_TOKEN",
    "GenericityClassifier",
    "GenericityModel",
    "loss_and_gradient",
    "predict_score",
    "sigmoid",
    "train_logistic",
    "EvalMetrics",
    "evaluate",
    "roc_auc",
    "dumps_model",
    "load_model",
    "loads_model",
    "save_model",
]
