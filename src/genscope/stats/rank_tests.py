"""Mann-Whitney U and Kruskal-Wallis H tests with tie correction.

Both tests rank the pooled data with midranks and use the asymptotic
normal / chi-square approximations without continuity correction, which
makes the k=2 Kruskal-Wallis H equal the squared Mann-Whitney z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..base import as_float_array
from ..errors import InputError
from .ranks import ranks_and_ties
from .special import chi_square_sf, two_sided_p


@dataclass
class MannWhitneyResult:
    u1: float
    u2: float
    n1: int
    n2: int
    mean_rank_a: float
    mean_rank_b: float
    z: float
    p: float
    r: float  # rank-biserial effect size |z| / sqrt(N)
    degenerate: bool = False


@dataclass
class DunnResult:
    z: np.ndarray  # k x k, antisymmetric
    p: np.ndarray  # k x k, Bonferroni-adjusted, symmetric


@dataclass
class KruskalWallisResult:
    h: float  # tie-corrected
    df: int
    p: float
    epsilon2: float
    mean_ranks: tuple[float, ...]
    group_sizes: tuple[int, ...]
    posthoc: DunnResult | None = None  # None when degenerate
    degenerate: bool = False


def mann_whitney_u(sample_a, sample_b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test on two independent samples."""
    a = as_float_array(sample_a, "sample_a")
    b = as_float_array(sample_b, "sample_b")
    n1, n2 = a.size, b.size
    n = n1 + n2

    ranks, ties = ranks_and_ties(np.concatenate([a, b]))
    r1 = float(ranks[:n1].sum())
    r2 = float(ranks[n1:].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    u2 = n1 * n2 - u1
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))

    if var <= 0.0:
        return MannWhitneyResult(
            u1=u1, u2=u2, n1=n1, n2=n2,
            mean_rank_a=r1 / n1, mean_rank_b=r2 / n2,
            z=0.0, p=1.0, r=0.0, degenerate=True,
        )

    z = (u1 - n1 * n2 / 2.0) / math.sqrt(var)
    return MannWhitneyResult(
        u1=u1, u2=u2, n1=n1, n2=n2,
        mean_rank_a=r1 / n1, mean_rank_b=r2 / n2,
        z=z, p=two_sided_p(z), r=abs(z) / math.sqrt(n),
    )


def kruskal_wallis(groups) -> KruskalWallisResult:
    """Kruskal-Wallis H test across k >= 2 independent samples, with
    Dunn's post-hoc on the same ranks unless every value is tied."""
    if len(groups) < 2:
        raise InputError("kruskal_wallis needs at least 2 groups")
    samples = [as_float_array(g, f"group {i}") for i, g in enumerate(groups)]
    sizes = tuple(s.size for s in samples)
    ranks, ties = ranks_and_ties(np.concatenate(samples))
    n, k = ranks.size, len(samples)

    rank_sums = [float(r.sum()) for r in np.split(ranks, np.cumsum(sizes)[:-1])]
    mean_ranks = tuple(rs / sz for rs, sz in zip(rank_sums, sizes))

    correction = 1.0 - ties / (n**3 - n)
    if correction <= 0.0:
        return KruskalWallisResult(
            h=0.0, df=k - 1, p=1.0, epsilon2=0.0,
            mean_ranks=mean_ranks, group_sizes=sizes, degenerate=True,
        )

    h_raw = 12.0 / (n * (n + 1)) * sum(
        rs * rs / sz for rs, sz in zip(rank_sums, sizes)
    ) - 3.0 * (n + 1)
    h = h_raw / correction

    return KruskalWallisResult(
        h=h,
        df=k - 1,
        p=chi_square_sf(max(h, 0.0), k - 1),
        epsilon2=h / (n - 1),
        mean_ranks=mean_ranks,
        group_sizes=sizes,
        posthoc=_dunn(sizes, mean_ranks, ties),
    )


def _dunn(sizes, mean_ranks, ties: float) -> DunnResult:
    """Dunn's pairwise z tests on the pooled midranks behind ``mean_ranks``.

    Bonferroni adjustment: each two-sided p is multiplied by the number
    of pairs and clamped to 1.
    """
    k, n = len(sizes), sum(sizes)
    base_var = n * (n + 1) / 12.0 - ties / (12.0 * (n - 1))
    n_pairs = k * (k - 1) // 2

    z = np.zeros((k, k))
    p = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            var = base_var * (1.0 / sizes[i] + 1.0 / sizes[j])
            if var <= 0.0:
                zij = 0.0
            else:
                zij = (mean_ranks[i] - mean_ranks[j]) / math.sqrt(var)
            z[i, j], z[j, i] = zij, -zij
            p[i, j] = p[j, i] = min(1.0, two_sided_p(zij) * n_pairs)
    return DunnResult(z=z, p=p)
