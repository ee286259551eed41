import numpy as np
import pytest

from genscope.classifier import evaluate, roc_auc
from genscope.errors import InputError

from oracles import auc_bruteforce


def test_perfect_separation():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    m = evaluate(scores, labels, threshold=0.5)
    assert m.auc == 1.0
    assert m.binary_accuracy == 1.0
    assert m.f1 == 1.0


def test_spec_auc_example():
    # positives {0.9, 0.35}, negatives {0.4, 0.3}: 3 of 4 pairs concordant
    scores = [0.9, 0.35, 0.4, 0.3]
    labels = [1, 1, 0, 0]
    assert roc_auc(scores, labels) == pytest.approx(0.75, abs=1e-12)


def test_balanced_confusion():
    # TP=1, FP=1, FN=1, TN=1
    scores = [0.9, 0.9, 0.1, 0.1]
    labels = [1, 0, 1, 0]
    m = evaluate(scores, labels, threshold=0.5)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert m.binary_accuracy == 0.5
    assert m.f1 == 0.5


def test_score_at_threshold_counts_positive():
    m = evaluate([0.5, 0.2], [1, 0], threshold=0.5)
    assert m.tp == 1 and m.fn == 0


def test_midrank_auc_matches_bruteforce():
    rng = np.random.RandomState(8)
    for _ in range(50):
        n = rng.randint(5, 201)
        scores = np.round(rng.rand(n), 2)  # rounding forces ties
        labels = rng.randint(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pytest.approx(
            auc_bruteforce(scores, labels), abs=1e-12
        )


def test_single_class_rejected():
    with pytest.raises(InputError):
        roc_auc([0.1, 0.9], [1, 1])


def test_tied_scores_get_half_credit():
    assert roc_auc([0.5, 0.5], [1, 0]) == 0.5


@pytest.mark.parametrize("labels, found", [
    ([0, 2, 1, 2, -1], "[-1, 2]"), ([0.0, 0.5], "[0.5]"), ([True, False], None),
])
def test_labels_other_than_0_and_1_are_named(labels, found):
    scores = [0.5] * len(labels)
    if found is None:
        assert roc_auc(scores, labels) == 0.5
    else:
        with pytest.raises(InputError) as info:
            roc_auc(scores, labels)
        assert str(info.value) == f"labels must be 0/1; found {found}"
