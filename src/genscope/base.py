"""Input validation shared by the estimators and the statistics.

Estimators store their constructor arguments as attributes of the same
name; fitted state gets a trailing underscore.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def check_fitted(estimator, attribute):
    if not hasattr(estimator, attribute):
        raise InputError(
            f"{type(estimator).__name__} is not fitted; call fit() first"
        )


def as_float_array(values, name="values"):
    """Coerce to a non-empty 1-D float array, rejecting non-finite entries."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise InputError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def as_feature_matrix(features, name="features"):
    """Coerce to a 2-D float matrix; a single vector becomes one row."""
    arr = np.asarray(features, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InputError(f"{name} must be a vector or a 2-D matrix")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def check_threshold(threshold):
    """A genericity decision threshold must lie strictly inside (0, 1);
    NaN does not."""
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must be in (0, 1); got {threshold!r}")


def check_binary_labels(labels, name="labels"):
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise InputError(f"{name} must be 1-D")
    bad = set(arr.tolist()) - {0, 1}
    if bad:
        raise InputError(f"{name} must be 0/1; found {sorted(bad)}")
    return arr.astype(np.int64)


def check_consistent_length(*arrays):
    lengths = {len(a) for a in arrays}
    if len(lengths) > 1:
        raise InputError(f"inconsistent lengths: {sorted(lengths)}")
