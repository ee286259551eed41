"""Chi-square, phi/V, and odds-ratio behavior, including the published-count goldens."""

import math

import numpy as np
import pytest

from genscope.errors import InputError
from genscope.stats import (
    ContingencyTable,
    chi_square_gof,
    chi_square_independence,
    odds_ratio,
)


class TestGoodnessOfFit:
    def test_uniform_observed_is_null(self):
        res = chi_square_gof([50, 50])
        assert res.chi2 == 0.0
        assert res.p == 1.0

    def test_hand_computed_example(self):
        # (60-50)^2/50 + (40-50)^2/50 = 4.0
        res = chi_square_gof([60, 40])
        assert res.chi2 == pytest.approx(4.0, abs=1e-12)
        assert res.df == 1

    def test_generic_share_golden(self):
        res = chi_square_gof([239677, 831588])
        assert res.chi2 == pytest.approx(327051.32, abs=1.0)
        assert res.df == 1
        assert res.p < 1e-10


class TestIndependence:
    def test_flat_table_is_null(self):
        res = chi_square_independence(ContingencyTable(np.array([[10, 10], [10, 10]])))
        assert res.chi2 == 0.0
        assert res.phi == 0.0
        assert res.cramers_v == 0.0

    def test_political_vs_gender_golden(self):
        table = ContingencyTable(np.array([[144789, 539737], [31846, 143549]]))
        res = chi_square_independence(table)
        assert res.chi2 == pytest.approx(767.32, abs=1.0)
        assert res.df == 1
        assert res.phi == pytest.approx(0.030, abs=0.002)
        assert res.phi > 0

    def test_political_vs_ethnic_golden(self):
        table = ContingencyTable(np.array([[144789, 539737], [63042, 148302]]))
        res = chi_square_independence(table)
        assert res.chi2 == pytest.approx(6824.62, abs=2.0)
        assert res.phi == pytest.approx(-0.09, abs=0.005)

    def test_sentiment_by_group_golden(self):
        counts = np.array(
            [
                [5027, 8920, 5786],
                [23229, 6987, 11443],
                [116533, 15939, 45813],
            ]
        )
        res = chi_square_independence(ContingencyTable(counts))
        assert res.chi2 == pytest.approx(23019.12, abs=2.0)
        assert res.df == 4
        assert res.cramers_v == pytest.approx(0.22, abs=0.005)
        assert res.phi is None

    def test_phi_identity_2x2(self):
        table = ContingencyTable(np.array([[30, 10], [15, 45]]))
        res = chi_square_independence(table)
        assert abs(res.phi) == pytest.approx(math.sqrt(res.chi2 / table.n), abs=1e-12)

    def test_transpose_preserves_chi2_and_abs_phi(self):
        counts = np.array([[12, 33], [44, 9]])
        a = chi_square_independence(ContingencyTable(counts))
        b = chi_square_independence(ContingencyTable(counts.T))
        assert a.chi2 == pytest.approx(b.chi2, rel=1e-12)
        assert abs(a.phi) == pytest.approx(abs(b.phi), rel=1e-12)

    def test_low_expected_warning(self):
        res = chi_square_independence(ContingencyTable(np.array([[1, 2], [3, 4]])))
        assert res.low_expected_warning

    def test_zero_marginal_rejected(self):
        with pytest.raises(InputError):
            chi_square_independence(ContingencyTable(np.array([[0, 0], [3, 4]])))

    def test_table_validation(self):
        with pytest.raises(InputError):
            ContingencyTable(np.array([[1, -2], [3, 4]]))
        with pytest.raises(InputError):
            ContingencyTable(np.array([1, 2, 3]))


class TestOddsRatio:
    def test_political_vs_gender_golden(self):
        res = odds_ratio(144789, 539737, 31846, 143549)
        assert res.odds_ratio == pytest.approx(1.21, abs=0.005)
        assert res.ci_low == pytest.approx(1.19, abs=0.01)
        assert res.ci_high == pytest.approx(1.23, abs=0.01)

    def test_neutral_positive_golden(self):
        res = odds_ratio(116533, 28256, 15939, 15907)
        assert res.odds_ratio == pytest.approx(4.12, abs=0.01)
        assert res.ci_low == pytest.approx(4.01, abs=0.02)
        assert res.ci_high == pytest.approx(4.22, abs=0.02)

    def test_symmetric_cells(self):
        res = odds_ratio(10, 10, 10, 10)
        assert res.odds_ratio == pytest.approx(1.0, abs=1e-12)
        assert res.ci_low < 1.0 < res.ci_high

    def test_haldane_anscombe_on_zero_cell(self):
        res = odds_ratio(5, 0, 3, 7)
        assert res.correction_applied
        assert math.isfinite(res.odds_ratio)
        assert res.ci_low <= res.odds_ratio <= res.ci_high

    def test_double_swap_preserves_or(self):
        a = odds_ratio(12, 5, 7, 21)
        # swapping both rows and columns leaves the ratio unchanged
        b = odds_ratio(21, 7, 5, 12)
        assert a.odds_ratio == pytest.approx(b.odds_ratio, rel=1e-12)

    def test_transpose_preserves_or(self):
        a = odds_ratio(12, 5, 7, 21)
        b = odds_ratio(12, 7, 5, 21)
        assert a.odds_ratio == pytest.approx(b.odds_ratio, rel=1e-12)

    def test_negative_cell_rejected(self):
        with pytest.raises(InputError):
            odds_ratio(-1, 2, 3, 4)
