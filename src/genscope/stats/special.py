"""Special functions backing the hypothesis tests.

The regularized incomplete gamma function is computed with the classic
series / continued-fraction split (series below a+1, Lentz's continued
fraction above), which keeps the absolute error well under 1e-10 across
the chi-square range used here. Normal tails are derived from the same
machinery through erfc.
"""

from __future__ import annotations

import math

from ..errors import InputError

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 10_000


def _gamma_p_series(a: float, x: float) -> float:
    # sum_n x^n / (a (a+1) ... (a+n)), scaled by x^a e^-x / Gamma(a)
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    log_front = a * math.log(x) - x - math.lgamma(a)
    if log_front < -700.0:
        return 0.0
    return total * math.exp(log_front)


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Lentz's method for the continued fraction of Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    log_front = a * math.log(x) - x - math.lgamma(a)
    if log_front < -700.0:
        return 0.0
    return math.exp(log_front) * h


def regularized_gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise InputError("shape parameter a must be > 0")
    if x < 0.0:
        raise InputError("x must be >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def erfc(t: float) -> float:
    """Complementary error function via the incomplete gamma identity."""
    if not math.isfinite(t):
        raise InputError("erfc argument must be finite")
    if t == 0.0:
        return 1.0
    if t < 0.0:
        return 2.0 - erfc(-t)
    return regularized_gamma_q(0.5, t * t)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if df < 1:
        raise InputError("df must be >= 1")
    if not math.isfinite(x) or x < 0.0:
        raise InputError("chi-square statistic must be finite and >= 0")
    return regularized_gamma_q(df / 2.0, x / 2.0)


def normal_sf(z: float) -> float:
    """Upper-tail probability of the standard normal distribution."""
    if not math.isfinite(z):
        raise InputError("z must be finite")
    return 0.5 * erfc(z / math.sqrt(2.0))


def two_sided_p(z: float) -> float:
    """Two-sided p of a standard-normal statistic, clamped to 1."""
    return min(1.0, 2.0 * normal_sf(abs(z)))
