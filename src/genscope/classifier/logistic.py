"""L2-regularized logistic regression trained by full-batch gradient descent.

Training is deterministic: zero initialization, full-batch updates, and a
halving-on-increase learning-rate safeguard that keeps the loss curve
non-increasing. The bias is never regularized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..base import (
    as_feature_matrix,
    check_binary_labels,
    check_consistent_length,
    check_fitted,
    check_threshold,
)
from ..errors import InputError, TrainingError
from .features import (
    BagOfWordsVectorizer,
    CsrMatrix,
    Vocabulary,
    bow_matrix,
    check_min_count,
    token_ids,
)

DEFAULT_LEARNING_RATE = 0.1
DEFAULT_EPOCHS = 500
DEFAULT_L2 = 1e-4
DEFAULT_SEED = 42
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_COUNT = 2
# train_logistic halves the learning rate while a step would raise the
# loss, and takes any step once the rate is below ETA_FLOOR
ETA_FLOOR = 1e-12


# exp(x) = 2^k exp(r) with k = rint(x / ln 2): ln 2 in a high part whose
# product with any such k is exact and a low part (Cody and Waite), and
# exp(r), |r| <= ln(2)/2, by its degree-12 Taylor polynomial in Horner form
_LN2_HI = 6.93147180369123816490e-01  # 0x3FE62E42FEE00000
_LN2_LO = 1.90821492927058770002e-10
_EXP_TAYLOR = [1.0 / math.factorial(i) for i in range(12, -1, -1)]


def _exp(x: np.ndarray) -> np.ndarray:
    """``exp`` of a float array with x <= 0 from IEEE adds, multiplies and
    ``ldexp`` alone, each rounded on its own at every SIMD width, so its
    bits do not depend on the CPU (``np.exp`` has AVX-512 kernels whose
    last bits differ from the AVX2 and baseline ones). Within 2 ulp of
    ``math.exp``; below -745 it underflows to 0, as ``np.exp`` does."""
    x = np.maximum(x, -750.0)  # -inf too; NaN stays NaN
    k = np.nan_to_num(np.rint(x / _LN2_HI))
    r = (x - k * _LN2_HI) - k * _LN2_LO
    poly = np.full_like(r, _EXP_TAYLOR[0])
    for c in _EXP_TAYLOR[1:]:
        poly = poly * r + c
    return np.ldexp(poly, k.astype(np.int64))


def sigmoid(z):
    z = np.asarray(z, dtype=float)
    ez = _exp(-np.abs(z))  # exp(-z) where z >= 0, else exp(z)
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _as_features(features):
    """A CsrMatrix as it is (checked when it was built), else a checked
    dense 2-D matrix."""
    if isinstance(features, CsrMatrix):
        return features
    return as_feature_matrix(features)


def loss_and_gradient(weights, bias, features, labels, l2):
    """Mean cross-entropy plus (l2/2)*||w||^2, with its exact gradient.

    ``features`` is a CsrMatrix or a dense matrix.
    """
    x = _as_features(features)
    y = np.asarray(labels, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = x.shape[0]
    z = x @ w + bias
    # -ln sigma(z) = logaddexp(0, -z); -ln(1 - sigma(z)) = logaddexp(0, z)
    ce = float(np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))
    loss = ce + 0.5 * l2 * float(w @ w)
    residual = sigmoid(z) - y
    grad_w = residual @ x / n + l2 * w
    grad_b = float(residual.mean())
    return loss, grad_w, grad_b


@dataclass
class GenericityModel:
    """Trained bag-of-words scorer: weights, bias, decision threshold,
    and provenance."""

    weights: np.ndarray
    bias: float
    threshold: float = DEFAULT_THRESHOLD
    l2: float = DEFAULT_L2
    seed: int = DEFAULT_SEED
    learning_rate: float = DEFAULT_LEARNING_RATE
    epochs: int = DEFAULT_EPOCHS
    vocab: Vocabulary | None = None
    loss_history: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        check_threshold(self.threshold)
        if self.vocab is not None and self.vocab.size != self.weights.size:
            raise InputError("vocabulary size does not match weight length")

    @property
    def dimension(self) -> int:
        return int(self.weights.size)


def check_hyperparameters(l2, learning_rate, epochs, threshold) -> None:
    """Reject training settings that cannot train. A non-finite l2 or
    learning rate would pass the range checks and only show as a
    non-finite loss; a NaN threshold fails ``check_threshold``.

    The l2 term's own step scales the weights by ``1 - eta * l2``, which
    cannot shrink them once ``eta * l2 >= 2``. The smallest rate training
    reaches is the learning rate halved until it is below ``ETA_FLOOR``,
    so an l2 of 2 over that rate or more can only grow the weights until
    the penalty overflows."""
    for name, value in (("l2 penalty", l2), ("learning_rate", learning_rate)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite; got {value!r}")
    if l2 < 0:
        raise InputError("l2 penalty must be >= 0")
    if learning_rate <= 0 or epochs < 1:
        raise InputError("learning_rate must be > 0 and epochs >= 1")
    eta = float(learning_rate)
    while eta >= ETA_FLOOR:
        eta /= 2.0
    if l2 * eta >= 2.0:
        raise InputError(
            f"l2 penalty must be < {2.0 / eta!r} at learning_rate {learning_rate!r}, "
            "or the penalty cannot shrink the weights; lower --l2"
        )
    check_threshold(threshold)


def train_logistic(
    features,
    labels,
    l2: float = DEFAULT_L2,
    learning_rate: float = DEFAULT_LEARNING_RATE,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = DEFAULT_SEED,
    threshold: float = DEFAULT_THRESHOLD,
    vocab: Vocabulary | None = None,
) -> GenericityModel:
    """Fit weights by deterministic full-batch gradient descent.

    ``features`` is a CsrMatrix or a dense matrix. The learning rate
    halves whenever a step would increase the loss, so the recorded loss
    history is non-increasing. Full batches need no shuffling, so the
    seed is recorded as provenance only.
    """
    x = _as_features(features)
    y = check_binary_labels(labels)
    check_consistent_length(x, y)
    if y.sum() == 0 or y.sum() == y.size:
        raise InputError("need at least one example of each label")
    check_hyperparameters(l2, learning_rate, epochs, threshold)

    w = np.zeros(x.shape[1])
    b = 0.0
    eta = float(learning_rate)
    loss, grad_w, grad_b = loss_and_gradient(w, b, x, y, l2)
    history = [loss]

    # an overflow shows as a non-finite loss, reported below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            while True:
                w_next = w - eta * grad_w
                b_next = b - eta * grad_b
                loss_next, gw_next, gb_next = loss_and_gradient(w_next, b_next, x, y, l2)
                if not math.isfinite(loss_next):
                    # the part of the step the l2 term takes on its own
                    w_l2 = w * (1.0 - eta * l2)
                    if not math.isfinite(0.5 * l2 * float(w_l2 @ w_l2)):
                        raise TrainingError(
                            f"the l2 penalty overflows (l2={l2!r}, eta={eta}, "
                            f"epoch={len(history)}); lower --l2"
                        )
                    raise TrainingError(
                        f"non-finite loss (eta={eta}, epoch={len(history)}); "
                        "check feature scaling"
                    )
                if loss_next <= loss or eta < ETA_FLOOR:
                    break
                eta /= 2.0
            w, b, loss, grad_w, grad_b = w_next, b_next, loss_next, gw_next, gb_next
            history.append(loss)

    return GenericityModel(
        weights=w,
        bias=b,
        threshold=threshold,
        l2=l2,
        seed=seed,
        learning_rate=learning_rate,
        epochs=epochs,
        vocab=vocab,
        loss_history=history,
    )


def predict_score(model: GenericityModel, features) -> np.ndarray:
    """Genericity scores sigma(w.x + b) in [0, 1], one per row of a
    CsrMatrix or a dense matrix (a dense vector is one row)."""
    x = _as_features(features)
    if x.shape[1] != model.dimension:
        raise InputError(
            f"feature dimension {x.shape[1]} does not match model "
            f"dimension {model.dimension}"
        )
    return sigmoid(x @ model.weights + model.bias)


def score_tokens(model: GenericityModel, token_lists) -> list[float]:
    """The model's score of each token list, from one ``predict_score``
    call over their bag-of-words rows. A row's score has the same bits
    whatever other rows it is scored with."""
    return predict_score(model, bow_matrix(token_lists, model.vocab)).tolist()


class GenericityClassifier:
    """Text-in classifier: bag-of-words features + logistic regression.

    The constructor checks and stores hyperparameters, so a bad one fails
    before any text is read; ``fit(texts, labels)`` learns ``model_``, and
    ``predict_proba`` returns the genericity score.
    """

    def __init__(
        self,
        min_count: int = DEFAULT_MIN_COUNT,
        learning_rate: float = DEFAULT_LEARNING_RATE,
        epochs: int = DEFAULT_EPOCHS,
        l2: float = DEFAULT_L2,
        seed: int = DEFAULT_SEED,
        threshold: float = DEFAULT_THRESHOLD,
    ):
        check_min_count(min_count)
        check_hyperparameters(l2, learning_rate, epochs, threshold)
        self.min_count = min_count
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        self.threshold = threshold

    def fit(self, texts, labels):
        self._fit([token_ids(texts)], labels)
        return self

    def fit_predict_proba(self, parts, labels) -> np.ndarray:
        """Fit on the training texts as ``token_ids`` counted them into
        ``parts``, in order, then score them with the feature matrix that
        training built, without vectorizing them again."""
        x = self._fit(parts, labels)
        return predict_score(self.model_, x)

    def _fit(self, parts, labels) -> CsrMatrix:
        """Learn ``vectorizer_`` and ``model_``; returns the training matrix."""
        y = check_binary_labels(labels)
        check_consistent_length(range(sum(map(len, parts))), y)
        self.vectorizer_ = BagOfWordsVectorizer(min_count=self.min_count)
        x = self.vectorizer_.fit_transform_ids(parts)
        self.model_ = train_logistic(
            x,
            y,
            l2=self.l2,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            seed=self.seed,
            threshold=self.threshold,
            vocab=self.vectorizer_.vocabulary_,
        )
        return x

    def predict_proba(self, texts) -> np.ndarray:
        check_fitted(self, "model_")
        return predict_score(self.model_, self.vectorizer_.transform(texts))
