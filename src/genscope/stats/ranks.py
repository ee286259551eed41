"""Midrank assignment, the substrate for the rank-based tests."""

from __future__ import annotations

import numpy as np

from ..base import as_float_array


def ranks_and_ties(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Midranks 1..N of a finite float array, where tied values share the
    mean of their positions, and the tie term: the sum of t^3 - t over tie
    groups of size t, as an exact integer (t^3 overflows int64 from
    t = 2^21, and a float sum is inexact past 2^53).

    A tie group of size t that ends at 1-based position e holds the ranks
    e - t + 1 .. e, so its midrank is e - (t - 1) / 2, exact in floating
    point for every half-integer below 2^52.
    """
    _, group, t = np.unique(arr, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(t) - (t - 1) / 2.0)[group]
    return ranks, sum(size**3 - size for size in t[t > 1].tolist())


def rank_with_ties(values) -> np.ndarray:
    """Ranks 1..N where tied values share the mean of their positions.

    The sum of the returned ranks is exactly N(N+1)/2 for every input.
    """
    return ranks_and_ties(as_float_array(values, "values"))[0]
