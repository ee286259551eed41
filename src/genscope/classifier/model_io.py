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
    <token> <index>        (bow models only)
    [weights]
    <index> <value>        (repr precision, round-trips bit-exactly)
    checksum <crc32 hex of all preceding bytes>
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from ..errors import InputError, ModelFormatError
from .features import Vocabulary
from .logistic import GenericityModel

FORMAT_VERSION = "v1"
MAGIC = "GENERICITY-MODEL"


def dumps_model(model: GenericityModel) -> str:
    lines = [
        f"{MAGIC} {FORMAT_VERSION}",
        f"feature_kind {model.feature_kind}",
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


def loads_model(text: str) -> GenericityModel:
    lines = text.splitlines()
    if not lines:
        raise ModelFormatError("empty model file")

    if not lines[-1].startswith("checksum "):
        raise ModelFormatError("missing checksum line (file truncated?)")
    stated = lines[-1].split()[1]
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

    vocab_index: dict[str, int] = {}
    i += 1
    while i < len(lines) and lines[i] != "[weights]":
        token, _, idx = lines[i].rpartition(" ")
        vocab_index[token] = int(idx)
        i += 1
    if i == len(lines):
        raise ModelFormatError("missing [weights] section")

    dimension = int(fields["dimension"])
    weights = np.zeros(dimension)
    seen = 0
    for line in lines[i + 1 : -1]:
        idx_s, _, value = line.partition(" ")
        idx = int(idx_s)
        if idx >= dimension:
            raise ModelFormatError(f"weight index {idx} out of range")
        weights[idx] = float(value)
        seen += 1
    if seen != dimension:
        raise ModelFormatError(
            f"expected {dimension} weights, found {seen}"
        )

    vocab = None
    if vocab_index:
        if len(vocab_index) != dimension:
            raise ModelFormatError("vocabulary size does not match dimension")
        vocab = Vocabulary(index=vocab_index, min_count=1)

    return GenericityModel(
        feature_kind=fields["feature_kind"],
        weights=weights,
        bias=float(fields.get("bias", "0.0")),
        threshold=float(fields["threshold"]),
        l2=float(fields["lambda"]),
        seed=int(fields["seed"]),
        learning_rate=float(fields.get("learning_rate", "0.1")),
        epochs=int(fields.get("epochs", "0")),
        vocab=vocab,
    )


def load_model(path) -> GenericityModel:
    return loads_model(Path(path).read_text(encoding="utf-8"))


def require_bow_vocab(model: GenericityModel, path) -> None:
    """Reject a model that cannot turn text into features.

    Only a bag-of-words model with a non-empty ``[vocab]`` section can
    score text; ``path`` names the model file in the message.
    """
    if model.feature_kind != "bow" or model.vocab is None:
        raise InputError(f"{path}: need a bag-of-words model with a [vocab] section")
