"""Mann-Whitney / Kruskal-Wallis behavior against brute-force oracles."""

import math

import numpy as np
import pytest

import genscope.stats.rank_tests
from genscope.errors import InputError
from genscope.stats import kruskal_wallis, mann_whitney_u

from oracles import mann_whitney_u_bruteforce


class TestMannWhitney:
    def test_fully_separated(self):
        res = mann_whitney_u([1, 2], [3, 4])
        assert res.u1 == 0.0
        assert res.u2 == 4.0
        assert res.u1 + res.u2 == res.n1 * res.n2

    def test_identical_samples(self):
        res = mann_whitney_u([5, 6, 7], [5, 6, 7])
        assert res.z == 0.0
        assert res.p == 1.0
        assert res.r == 0.0

    def test_all_tied_is_degenerate(self):
        res = mann_whitney_u([3, 3, 3], [3, 3])
        assert res.degenerate
        assert res.p == 1.0

    def test_u_matches_bruteforce_random(self):
        rng = np.random.RandomState(42)
        for _ in range(150):
            n1 = rng.randint(1, 31)
            n2 = rng.randint(1, 31)
            a = rng.randint(0, 10, size=n1).astype(float)
            b = rng.randint(0, 10, size=n2).astype(float)
            res = mann_whitney_u(a, b)
            assert res.u1 == mann_whitney_u_bruteforce(a, b)
            assert res.u1 + res.u2 == pytest.approx(n1 * n2, abs=0.0)

    def test_monotone_transform_invariance(self):
        rng = np.random.RandomState(7)
        a = rng.randint(0, 50, size=25).astype(float)
        b = rng.randint(0, 50, size=18).astype(float)
        base = mann_whitney_u(a, b)
        for f in (lambda x: x**3, np.exp):
            res = mann_whitney_u(f(a), f(b))
            assert res.u1 == base.u1
            assert res.z == pytest.approx(base.z, abs=1e-12)
            assert res.mean_rank_a == pytest.approx(base.mean_rank_a, abs=1e-12)

    def test_mean_ranks_reported(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.mean_rank_a == 2.0
        assert res.mean_rank_b == 5.0

    def test_effect_size_is_z_over_sqrt_n(self):
        rng = np.random.RandomState(3)
        a = rng.rand(40)
        b = rng.rand(30) + 0.2
        res = mann_whitney_u(a, b)
        assert res.r == pytest.approx(abs(res.z) / math.sqrt(70), abs=1e-14)


class TestKruskalWallis:
    def test_hand_computed_no_ties(self):
        res = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert res.h == pytest.approx(7.2, abs=1e-12)
        assert res.df == 2

    def test_identical_groups(self):
        res = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
        assert res.h == pytest.approx(0.0, abs=1e-12)

    def test_all_tied_degenerate(self):
        res = kruskal_wallis([[4, 4], [4, 4], [4]])
        assert res.degenerate

    def test_k2_equals_mw_z_squared(self):
        rng = np.random.RandomState(0)
        for _ in range(100):
            n1 = rng.randint(2, 31)
            n2 = rng.randint(2, 31)
            a = rng.randint(0, 6, size=n1).astype(float)
            b = rng.randint(0, 6, size=n2).astype(float)
            mw = mann_whitney_u(a, b)
            kw = kruskal_wallis([a, b])
            if mw.degenerate:
                assert kw.degenerate
                continue
            assert kw.h == pytest.approx(mw.z**2, abs=1e-6)

    def test_epsilon_squared(self):
        groups = [[1, 5, 2], [9, 8, 7], [4, 3, 6]]
        res = kruskal_wallis(groups)
        assert res.epsilon2 == pytest.approx(res.h / 8, abs=1e-14)

    def test_monotone_transform_invariance(self):
        rng = np.random.RandomState(5)
        groups = [rng.randint(0, 20, size=n).astype(float) for n in (10, 14, 8)]
        base = kruskal_wallis(groups)
        cubed = kruskal_wallis([g**3 for g in groups])
        assert cubed.h == pytest.approx(base.h, abs=1e-10)
        assert cubed.mean_ranks == pytest.approx(base.mean_ranks, abs=1e-12)

    def test_needs_two_groups(self):
        with pytest.raises(InputError):
            kruskal_wallis([[1, 2, 3]])


class TestDunnPosthoc:
    def test_identical_groups_p_one(self):
        res = kruskal_wallis([[1, 2, 3], [1, 2, 3], [1, 2, 3]]).posthoc
        assert np.all(res.p == 1.0)

    def test_separated_groups_monotone_z(self):
        res = kruskal_wallis([[1, 2], [11, 12], [21, 22]]).posthoc
        # mean ranks increase with the group index, so z[i, j] < 0 for i < j
        assert res.z[0, 1] < 0 and res.z[1, 2] < 0 and res.z[0, 2] < res.z[0, 1]

    def test_k2_reduces_to_mann_whitney_z(self):
        rng = np.random.RandomState(9)
        for _ in range(50):
            a = rng.randint(0, 8, size=rng.randint(3, 25)).astype(float)
            b = rng.randint(0, 8, size=rng.randint(3, 25)).astype(float)
            mw = mann_whitney_u(a, b)
            if mw.degenerate:
                continue
            dn = kruskal_wallis([a, b]).posthoc
            assert abs(dn.z[0, 1]) == pytest.approx(abs(mw.z), abs=1e-6)

    def test_bonferroni_clamps_to_one(self):
        res = kruskal_wallis([[1, 2, 3], [1, 3, 2], [2, 1, 3]]).posthoc
        assert np.all(res.p <= 1.0)


class TestOneRanking:
    """Each test ranks its pooled sample once; Dunn's post-hoc reads the
    Kruskal-Wallis ranks."""

    @pytest.fixture
    def rankings(self, monkeypatch):
        calls = []
        rank = genscope.stats.rank_tests.ranks_and_ties
        monkeypatch.setattr(
            genscope.stats.rank_tests, "ranks_and_ties",
            lambda arr: calls.append(arr.size) or rank(arr),
        )
        return calls

    def test_mann_whitney_ranks_once(self, rankings):
        mann_whitney_u([1, 2, 2, 5], [2, 3, 4])
        assert rankings == [7]

    def test_kruskal_wallis_and_its_posthoc_rank_once(self, rankings):
        res = kruskal_wallis([[1, 2, 2], [3, 4], [2, 5, 6, 7]])
        assert res.posthoc is not None
        assert rankings == [9]
