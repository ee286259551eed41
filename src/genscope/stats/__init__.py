"""Non-parametric hypothesis tests, effect sizes, and special functions.

Each name in ``__all__`` imports its submodule when it is first read
(PEP 562), so the classifier's ``roc_auc`` loads the ranks alone.
"""

import importlib

# each re-export and the submodule that ``__getattr__`` imports it from
_EXPORTS = {
    "ContingencyTable": "contingency",
    "ChiSquareResult": "contingency",
    "OddsRatioResult": "contingency",
    "chi_square_gof": "contingency",
    "chi_square_independence": "contingency",
    "odds_ratio": "contingency",
    "rank_with_ties": "ranks",
    "DunnResult": "rank_tests",
    "KruskalWallisResult": "rank_tests",
    "MannWhitneyResult": "rank_tests",
    "kruskal_wallis": "rank_tests",
    "kruskal_wallis_from_ranks": "rank_tests",
    "mann_whitney_from_u": "rank_tests",
    "mann_whitney_u": "rank_tests",
    "chi_square_sf": "special",
    "erfc": "special",
    "normal_sf": "special",
    "regularized_gamma_q": "special",
    "two_sided_p": "special",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that ``name`` is re-exported from (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
