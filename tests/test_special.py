"""Special-function accuracy against the Decimal series oracle."""

import math

import pytest

from genscope.errors import InputError
from genscope.stats import chi_square_sf, erfc, normal_sf

from oracles import gamma_q_oracle, normal_sf_oracle


def test_chi_square_sf_standard_quantile():
    # 0.95 quantile of chi-square with 1 df
    assert chi_square_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-6)


def test_normal_sf_standard_quantile():
    assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-7)


def test_normal_sf_symmetry():
    assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-15)
    for z in (0.3, 1.1, 2.7):
        assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-13)


def test_chi_square_sf_at_zero_is_one():
    for df in (1, 2, 5, 10):
        assert chi_square_sf(0.0, df) == 1.0


@pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 8, 12, 30])
@pytest.mark.parametrize("x", [0.05, 0.5, 1.0, 2.5, 3.841459, 7.0, 15.0, 40.0, 80.0])
def test_chi_square_sf_matches_series_oracle(df, x):
    got = chi_square_sf(x, df)
    want = float(gamma_q_oracle(df, x / 2.0))
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 1.644854, 1.959964, 2.575829, 4.0, 6.0])
def test_normal_sf_matches_oracles(z):
    got = normal_sf(z)
    want = float(normal_sf_oracle(z))
    assert got == pytest.approx(want, abs=1e-12)
    # stdlib erfc as a second, independently coded reference
    assert got == pytest.approx(0.5 * math.erfc(z / math.sqrt(2)), abs=1e-13)


def test_erfc_matches_stdlib():
    for t in (-2.0, -0.5, 0.0, 0.3, 1.0, 2.5):
        assert erfc(t) == pytest.approx(math.erfc(t), abs=1e-12)


def test_chi_square_sf_strictly_decreasing_in_x():
    for df in (1, 3, 7):
        values = [chi_square_sf(x, df) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_huge_statistic_underflows_to_zero():
    assert chi_square_sf(327051.0, 1) == 0.0
    assert chi_square_sf(327051.0, 1) < 1e-10


def test_domain_errors():
    with pytest.raises(InputError):
        chi_square_sf(-1.0, 1)
    with pytest.raises(InputError):
        chi_square_sf(1.0, 0)
    with pytest.raises(InputError):
        normal_sf(float("nan"))
