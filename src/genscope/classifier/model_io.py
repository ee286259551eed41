"""Versioned plain-text model persistence with a CRC-32 integrity check.

Layout (UTF-8, \\n newlines):

    GENERICITY-MODEL v1
    feature_kind bow
    dimension 123
    threshold 0.5
    lambda 0.0001
    seed 42
    learning_rate 0.1
    epochs 500
    bias -0.125
    [vocab]
    <token> <index>        (one per weight; empty for a model with no vocabulary)
    [weights]
    <index> <value>        (repr precision, round-trips bit-exactly)
    checksum <crc32 hex of all preceding bytes>
"""

from __future__ import annotations

import math
import zlib
from pathlib import Path

import numpy as np

from ..errors import InputError, Lines, ModelFormatError
from .features import Vocabulary
from .logistic import GenericityModel

FORMAT_VERSION = "v1"
MAGIC = "GENERICITY-MODEL"
# the only feature kind; written so that files keep their layout
FEATURE_KIND = "bow"


def dumps_model(model: GenericityModel) -> str:
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"feature_kind {FEATURE_KIND}",
        f"dimension {model.dimension}",
        f"threshold {model.threshold!r}",
        f"lambda {model.l2!r}",
        f"seed {model.seed}",
        f"learning_rate {model.learning_rate!r}",
        f"epochs {model.epochs}",
        f"bias {model.bias!r}",
        "[vocab]",
    ]
    if model.vocab is not None:
        for i, token in enumerate(model.vocab.tokens_by_index()):
            lines.append(f"{token} {i}")
    lines.append("[weights]")
    for i, value in enumerate(model.weights):
        lines.append(f"{i} {float(value)!r}")
    body = "\n".join(lines) + "\n"
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return body + f"checksum {crc:08x}\n"


def save_model(model: GenericityModel, path) -> None:
    Path(path).write_text(dumps_model(model), encoding="utf-8", newline="\n")


def _parse(kind, text: str, what: str, line: str | None = None):
    """``kind(text)`` for ``int`` or ``float``; a value that does not parse,
    or a float that is not finite, is a ModelFormatError naming ``what``,
    and ``line`` if given. The message is built only then: a model has a
    vocab and a weight line per feature."""
    try:
        value = kind(text)
    except ValueError:
        pass
    else:
        if kind is int or math.isfinite(value):
            return value
    expected = "an integer" if kind is int else "a finite number"
    if line is not None:
        what = f"{what} {line!r}"
    raise ModelFormatError(f"{what}: {text!r} is not {expected}")


def _check_permutation(indices, dimension: int, section: str) -> None:
    if sorted(indices) != list(range(dimension)):
        raise ModelFormatError(
            f"{section} indices are not each of 0..{dimension - 1} once"
        )


def loads_model(text: str) -> GenericityModel:
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model file")

    if not lines[-1].startswith("checksum "):
        raise ModelFormatError("missing checksum line (file truncated?)")
    stated = lines[-1].partition(" ")[2].strip()
    body = "\n".join(lines[:-1]) + "\n"
    actual = f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x}"
    if stated != actual:
        raise ModelFormatError(
            f"checksum mismatch: file says {stated}, content is {actual}"
        )

    header = lines[0].split()
    if len(header) != 2 or header[0] != MAGIC:
        raise ModelFormatError("not a genericity model file")
    if header[1] != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model format version {header[1]!r}; "
            f"this build reads {FORMAT_VERSION}"
        )

    fields: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "[vocab]":
        key, _, value = lines[i].partition(" ")
        fields[key] = value
        i += 1
    if i == len(lines):
        raise ModelFormatError("missing [vocab] section")

    required = ("feature_kind", "dimension", "threshold", "lambda", "seed")
    for key in required:
        if key not in fields:
            raise ModelFormatError(f"missing header field {key!r}")
    if fields["feature_kind"] != FEATURE_KIND:
        raise ModelFormatError(
            f"feature_kind: {fields['feature_kind']!r} is not {FEATURE_KIND!r}"
        )
    dimension = _parse(int, fields["dimension"], "dimension")

    vocab_index: dict[str, int] = {}
    i += 1
    while i < len(lines) and lines[i] != "[weights]":
        token, _, idx = lines[i].rpartition(" ")
        vocab_index[token] = _parse(int, idx, "vocab line", lines[i])
        i += 1
    if i == len(lines):
        raise ModelFormatError("missing [weights] section")

    # counted before the weights are allocated, so a huge dimension is
    # rejected without taking its memory
    weight_lines = lines[i + 1 : -1]
    if len(weight_lines) != dimension:
        raise ModelFormatError(
            f"expected {dimension} weights, found {len(weight_lines)}"
        )
    indices, values = [], []
    for line in weight_lines:
        idx, _, value = line.partition(" ")
        indices.append(_parse(int, idx, "weight line", line))
        values.append(_parse(float, value, "weight line", line))
    _check_permutation(indices, dimension, "[weights]")
    weights = np.zeros(dimension)
    weights[np.asarray(indices, dtype=np.intp)] = values

    vocab = None
    if vocab_index:
        _check_permutation(vocab_index.values(), dimension, "[vocab]")
        vocab = Vocabulary(index=vocab_index, min_count=1)

    return GenericityModel(
        weights=weights,
        bias=_parse(float, fields.get("bias", "0.0"), "bias"),
        threshold=_parse(float, fields["threshold"], "threshold"),
        l2=_parse(float, fields["lambda"], "lambda"),
        seed=_parse(int, fields["seed"], "seed"),
        learning_rate=_parse(float, fields.get("learning_rate", "0.1"), "learning_rate"),
        epochs=_parse(int, fields.get("epochs", "0"), "epochs"),
        vocab=vocab,
    )


def load_model(path) -> GenericityModel:
    text = Lines(path).text()
    try:
        return loads_model(text)
    except ModelFormatError as exc:
        raise ModelFormatError(f"{path}: {exc}") from None


def load_bow_model(path) -> GenericityModel:
    """The trained model at ``path``, which must carry the vocabulary that
    texts are scored through."""
    model = load_model(path)
    if model.vocab is None:
        raise InputError(f"{path}: need a bag-of-words model with a [vocab] section")
    return model
