"""The rank and chi-square tests against ``scipy.stats`` on tie-heavy data.

scipy is not a genscope dependency, so this module is skipped where it is
not installed. The samples draw from a handful of values, so most of them
hold ties, and both sides must agree to a relative 1e-9 on every
statistic and p-value.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

stats = pytest.importorskip("scipy.stats")

from genscope.stats import (  # noqa: E402
    ContingencyTable,
    chi_square_gof,
    chi_square_independence,
    kruskal_wallis,
    mann_whitney_u,
)

REL = 1e-9

# few distinct values, so ties are the rule
tied = st.lists(
    st.integers(0, 4).map(float) | st.sampled_from([0.5, 2.5]), min_size=1, max_size=40
)
counts = st.integers(0, 30)
derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@derandomized
@given(tied, tied)
def test_mann_whitney_u_matches_scipy(a, b):
    ours = mann_whitney_u(a, b)
    assume(not ours.degenerate)
    theirs = stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=False)
    assert ours.u1 == pytest.approx(theirs.statistic, rel=REL)
    assert ours.p == pytest.approx(theirs.pvalue, rel=REL)


@derandomized
@given(st.lists(tied, min_size=2, max_size=5))
def test_kruskal_wallis_matches_scipy(groups):
    ours = kruskal_wallis(groups)
    assume(not ours.degenerate)
    theirs = stats.kruskal(*groups)
    assert ours.h == pytest.approx(theirs.statistic, rel=REL)
    assert ours.p == pytest.approx(theirs.pvalue, rel=REL)


@derandomized
@given(st.lists(counts, min_size=2, max_size=6))
def test_chi_square_gof_matches_scipy(observed):
    assume(sum(observed) > 0)
    ours = chi_square_gof(observed)
    theirs = stats.chisquare(observed)
    assert ours.chi2 == pytest.approx(theirs.statistic, rel=REL)
    assert ours.p == pytest.approx(theirs.pvalue, rel=REL)


@derandomized
@given(st.integers(2, 4).flatmap(
    lambda cols: st.lists(st.lists(counts, min_size=cols, max_size=cols), min_size=2, max_size=4)
))
def test_chi_square_independence_matches_scipy(rows):
    table = np.array(rows)
    assume(table.sum(axis=0).all() and table.sum(axis=1).all())
    ours = chi_square_independence(ContingencyTable(table))
    chi2, p, dof, expected = stats.chi2_contingency(table, correction=False)
    assert ours.chi2 == pytest.approx(chi2, rel=REL)
    assert ours.p == pytest.approx(p, rel=REL)
    assert ours.df == dof
    assert ours.min_expected == pytest.approx(expected.min(), rel=REL)
