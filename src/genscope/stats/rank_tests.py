"""Mann-Whitney U and Kruskal-Wallis H tests with tie correction.

Both tests rank the pooled data with midranks and use the asymptotic
normal / chi-square approximations without continuity correction, which
makes the k=2 Kruskal-Wallis H equal the squared Mann-Whitney z. Each
test ranks the pooled samples once, then is a function of the sizes, the
rank sums and the tie term alone, so a report can be rebuilt from those.
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
    ties: int  # the tie term T = sum(t^3 - t) over the pooled tie groups
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
    rank_sums_x2: tuple[int, ...]  # twice each group's rank sum, a whole number
    ties: int  # the tie term T = sum(t^3 - t) over the pooled tie groups
    posthoc: DunnResult | None = None  # None when degenerate
    degenerate: bool = False


def _pooled_ranks(samples) -> tuple[list[int], int]:
    """Rank the pooled samples: twice each sample's midrank sum and the tie
    term, both exact integers."""
    ranks, ties = ranks_and_ties(np.concatenate(samples))
    cuts = np.cumsum([s.size for s in samples])[:-1]
    return [int(2 * part.sum()) for part in np.split(ranks, cuts)], ties


def mann_whitney_u(sample_a, sample_b) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test on two independent samples."""
    a = as_float_array(sample_a, "sample_a")
    b = as_float_array(sample_b, "sample_b")
    (r1_x2, _), ties = _pooled_ranks([a, b])
    return mann_whitney_from_u(a.size, b.size, r1_x2 / 2 - a.size * (a.size + 1) / 2.0, ties)


def mann_whitney_from_u(n1: int, n2: int, u1, ties: int) -> MannWhitneyResult:
    """The Mann-Whitney test from the sample sizes, the first sample's U and
    the tie term."""
    n = n1 + n2
    u2 = n1 * n2 - u1
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    degenerate = var <= 0.0
    z = 0.0 if degenerate else (u1 - n1 * n2 / 2.0) / math.sqrt(var)
    return MannWhitneyResult(
        u1=u1, u2=u2, n1=n1, n2=n2,
        mean_rank_a=(u1 + n1 * (n1 + 1) / 2.0) / n1,
        mean_rank_b=(u2 + n2 * (n2 + 1) / 2.0) / n2,
        z=z, p=two_sided_p(z), r=abs(z) / math.sqrt(n), ties=ties, degenerate=degenerate,
    )


def kruskal_wallis(groups) -> KruskalWallisResult:
    """Kruskal-Wallis H test across k >= 2 independent samples, with
    Dunn's post-hoc on the same ranks unless every value is tied."""
    if len(groups) < 2:
        raise InputError("kruskal_wallis needs at least 2 groups")
    samples = [as_float_array(g, f"group {i}") for i, g in enumerate(groups)]
    rank_sums_x2, ties = _pooled_ranks(samples)
    return kruskal_wallis_from_ranks([s.size for s in samples], rank_sums_x2, ties)


def kruskal_wallis_from_ranks(sizes, rank_sums_x2, ties: int) -> KruskalWallisResult:
    """The Kruskal-Wallis test, with Dunn's post-hoc, from the group sizes,
    twice each group's rank sum and the tie term."""
    n, k = sum(sizes), len(sizes)
    rank_sums = [rs_x2 / 2 for rs_x2 in rank_sums_x2]
    mean_ranks = tuple(rs / sz for rs, sz in zip(rank_sums, sizes))
    correction = 1.0 - ties / (n**3 - n)
    degenerate = correction <= 0.0
    h = 0.0 if degenerate else (
        12.0 / (n * (n + 1)) * sum(rs * rs / sz for rs, sz in zip(rank_sums, sizes))
        - 3.0 * (n + 1)
    ) / correction

    return KruskalWallisResult(
        h=h, df=k - 1, p=chi_square_sf(max(h, 0.0), k - 1), epsilon2=h / (n - 1),
        mean_ranks=mean_ranks, group_sizes=tuple(sizes), rank_sums_x2=tuple(rank_sums_x2),
        ties=ties, posthoc=None if degenerate else _dunn(sizes, mean_ranks, ties),
        degenerate=degenerate,
    )


def _dunn(sizes, mean_ranks, ties: int) -> DunnResult:
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
            zij = 0.0 if var <= 0.0 else (mean_ranks[i] - mean_ranks[j]) / math.sqrt(var)
            z[i, j], z[j, i] = zij, -zij
            p[i, j] = p[j, i] = min(1.0, two_sided_p(zij) * n_pairs)
    return DunnResult(z=z, p=p)
