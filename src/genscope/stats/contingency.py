"""Pearson chi-square tests, phi / Cramer's V, and odds ratios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .special import chi_square_sf

LOW_EXPECTED_THRESHOLD = 5.0
# the two-sided 95% standard-normal quantile behind every odds-ratio CI
Z_95 = 1.959964


@dataclass
class ContingencyTable:
    """An r x c table of non-negative integer counts."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts)
        if arr.ndim != 2:
            raise InputError("contingency table must be 2-D")
        if np.any(arr < 0):
            raise InputError("contingency table counts must be >= 0")
        if np.any(arr != np.floor(arr)):
            raise InputError("contingency table counts must be integers")
        self.counts = arr.astype(np.int64)
        if self.n == 0:
            raise InputError("contingency table is empty (grand total 0)")

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    @property
    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass
class ChiSquareResult:
    chi2: float
    df: int
    p: float
    min_expected: float
    phi: float | None = None  # signed, 2x2 only
    cramers_v: float | None = None
    low_expected_warning: bool = False
    cells: np.ndarray | None = None  # observed counts, for recomputation


@dataclass
class OddsRatioResult:
    odds_ratio: float
    ci_low: float
    ci_high: float
    cells: tuple[float, float, float, float]
    correction_applied: bool = False


def chi_square_gof(observed) -> ChiSquareResult:
    """One-way goodness-of-fit test against the uniform distribution."""
    obs = np.asarray(observed, dtype=float).ravel()
    if obs.size < 2:
        raise InputError("goodness-of-fit needs at least 2 categories")
    if np.any(obs < 0):
        raise InputError("observed counts must be >= 0")
    total = obs.sum()
    if total == 0:
        raise InputError("observed counts are all zero")
    exp = np.full(obs.size, total / obs.size)
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    df = obs.size - 1
    return ChiSquareResult(
        chi2=chi2,
        df=df,
        p=chi_square_sf(chi2, df),
        min_expected=float(exp.min()),
        low_expected_warning=bool(exp.min() < LOW_EXPECTED_THRESHOLD),
        cells=obs.astype(np.int64),
    )


def chi_square_independence(table: ContingencyTable) -> ChiSquareResult:
    """Pearson chi-square test of independence on an r x c table.

    For 2x2 tables phi is signed by the sign of ad - bc; Cramer's V is
    always populated.
    """
    counts = table.counts.astype(float)
    r, c = counts.shape
    if r < 2 or c < 2:
        raise InputError("independence test needs at least a 2x2 table")
    row = table.row_totals.astype(float)
    col = table.col_totals.astype(float)
    if np.any(row == 0) or np.any(col == 0):
        raise InputError("zero row or column marginal")
    n = float(table.n)

    expected = np.outer(row, col) / n
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    df = (r - 1) * (c - 1)

    phi = None
    if (r, c) == (2, 2):
        a, b = counts[0]
        cc, d = counts[1]
        sign = 1.0 if (a * d - b * cc) >= 0 else -1.0
        phi = sign * math.sqrt(chi2 / n)
    cramers_v = math.sqrt(chi2 / (n * min(r - 1, c - 1)))

    return ChiSquareResult(
        chi2=chi2,
        df=df,
        p=chi_square_sf(chi2, df),
        min_expected=float(expected.min()),
        phi=phi,
        cramers_v=cramers_v,
        low_expected_warning=bool(expected.min() < LOW_EXPECTED_THRESHOLD),
        cells=table.counts,
    )


def odds_ratio(a, b, c, d) -> OddsRatioResult:
    """Odds ratio ad/(bc) with a log-normal 95% confidence interval.

    Zero cells get the Haldane-Anscombe +0.5 correction applied to all
    four cells before anything is computed.
    """
    cells = (a, b, c, d)
    if any(v < 0 for v in cells):
        raise InputError("cell counts must be >= 0")
    corrected = any(v == 0 for v in cells)
    if corrected:
        a, b, c, d = (v + 0.5 for v in cells)
    orr = (a * d) / (b * c)
    se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
    log_or = math.log(orr)
    return OddsRatioResult(
        odds_ratio=orr,
        ci_low=math.exp(log_or - Z_95 * se),
        ci_high=math.exp(log_or + Z_95 * se),
        cells=(float(a), float(b), float(c), float(d)),
        correction_applied=corrected,
    )
