import zlib

import numpy as np
import pytest

from genscope.classifier import (
    GenericityClassifier,
    GenericityModel,
    Vocabulary,
    dumps_model,
    load_model,
    loads_model,
    predict_score,
    save_model,
    train_logistic,
)
from genscope.errors import ModelFormatError


@pytest.fixture
def trained_model():
    rng = np.random.RandomState(3)
    x = rng.randn(30, 4)
    y = (x[:, 0] > 0).astype(int)
    return train_logistic(x, y, epochs=150)


def test_round_trip_scores_bit_identical(tmp_path, trained_model):
    path = tmp_path / "model.txt"
    save_model(trained_model, path)
    loaded = load_model(path)
    rng = np.random.RandomState(9)
    inputs = rng.randn(100, 4)
    a = predict_score(trained_model, inputs)
    b = predict_score(loaded, inputs)
    assert a.tobytes() == b.tobytes()
    assert loaded.threshold == trained_model.threshold
    assert loaded.l2 == trained_model.l2
    assert loaded.seed == trained_model.seed


def test_round_trip_with_vocabulary(tmp_path):
    clf = GenericityClassifier(min_count=1, epochs=100)
    clf.fit(["alpha beta", "beta gamma", "alpha alpha"], [1, 0, 1])
    path = tmp_path / "model.txt"
    save_model(clf.model_, path)
    loaded = load_model(path)
    assert loaded.vocab.index == clf.model_.vocab.index
    assert loaded.weights.tobytes() == clf.model_.weights.tobytes()


def test_truncated_file_fails_checksum(tmp_path, trained_model):
    text = dumps_model(trained_model)
    # drop a line from the middle; checksum line survives
    lines = text.splitlines()
    corrupted = "\n".join(lines[:5] + lines[6:]) + "\n"
    with pytest.raises(ModelFormatError, match="checksum"):
        loads_model(corrupted)


def test_missing_checksum_line(tmp_path, trained_model):
    text = dumps_model(trained_model)
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ModelFormatError, match="checksum"):
        loads_model(truncated)


def _replace_line(text, old, new):
    """``text`` with the line ``old`` replaced by ``new`` and a valid
    checksum, so only that line differs."""
    lines = text.splitlines()[:-1]
    lines[lines.index(old)] = new
    body = "\n".join(lines) + "\n"
    return body + f"checksum {zlib.crc32(body.encode()) & 0xFFFFFFFF:08x}\n"


def test_future_version_rejected(trained_model):
    text = _replace_line(
        dumps_model(trained_model), "GENERICITY-MODEL v1", "GENERICITY-MODEL v2"
    )
    with pytest.raises(ModelFormatError, match="version"):
        loads_model(text)


ONE_WORD = GenericityModel(
    weights=np.array([3.0]),
    bias=0.7,
    vocab=Vocabulary(index={"zebra": 0}, min_count=1),
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("feature_kind bow", "feature_kind embedding", "feature_kind"),
        ("dimension 1", "dimension abc", "dimension"),
        ("dimension 1", "dimension 99999999999", "expected 99999999999 weights"),
        ("threshold 0.5", "threshold x", "threshold"),
        ("lambda 0.0001", "lambda nan", "lambda"),
        ("seed 42", "seed 4.2", "seed"),
        ("learning_rate 0.1", "learning_rate ", "learning_rate"),
        ("epochs 500", "epochs many", "epochs"),
        ("bias 0.7", "bias inf", "bias"),
        ("zebra 0", "zebra q", "zebra q"),
        ("zebra 0", "zebra 5", r"\[vocab\] indices"),
        ("zebra 0", "zebra -1", r"\[vocab\] indices"),
        ("0 3.0", "0 w", "0 w"),
        ("0 3.0", "x 3.0", "x 3.0"),
        ("0 3.0", "1 3.0", r"\[weights\] indices"),
    ],
)
def test_malformed_field_rejected(old, new, message):
    text = _replace_line(dumps_model(ONE_WORD), old, new)
    with pytest.raises(ModelFormatError, match=message):
        loads_model(text)


def test_not_a_model_file():
    with pytest.raises(ModelFormatError):
        loads_model("hello world\n")
