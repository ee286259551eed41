"""Non-parametric hypothesis tests, effect sizes, and special functions."""

from .contingency import (
    ContingencyTable,
    ChiSquareResult,
    OddsRatioResult,
    chi_square_gof,
    chi_square_independence,
    odds_ratio,
)
from .ranks import rank_with_ties
from .rank_tests import (
    DunnResult,
    KruskalWallisResult,
    MannWhitneyResult,
    kruskal_wallis,
    mann_whitney_u,
)
from .special import (
    chi_square_sf,
    erfc,
    normal_sf,
    regularized_gamma_q,
    two_sided_p,
)

__all__ = [
    "ContingencyTable",
    "ChiSquareResult",
    "OddsRatioResult",
    "chi_square_gof",
    "chi_square_independence",
    "odds_ratio",
    "rank_with_ties",
    "DunnResult",
    "KruskalWallisResult",
    "MannWhitneyResult",
    "kruskal_wallis",
    "mann_whitney_u",
    "chi_square_sf",
    "erfc",
    "normal_sf",
    "regularized_gamma_q",
    "two_sided_p",
]
