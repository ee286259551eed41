import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genscope.errors import InputError
from genscope.stats import rank_with_ties
from genscope.stats.ranks import ranks_and_ties

from oracles import midranks_oracle

# a small pool of values gives heavy ties; -0.0 and 0.0 are one tie group
VALUES = st.lists(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e300, -1e-300])
    | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=80,
)


def test_midrank_convention():
    assert rank_with_ties([10, 20, 20, 30]).tolist() == [1, 2.5, 2.5, 4]


def test_distinct_sorted_values():
    assert rank_with_ties([1, 2, 3, 4, 5]).tolist() == [1, 2, 3, 4, 5]


def test_all_equal():
    assert rank_with_ties([7, 7, 7, 7, 7]).tolist() == [3, 3, 3, 3, 3]


def test_rank_sum_conservation():
    rng = np.random.RandomState(11)
    for _ in range(200):
        n = rng.randint(1, 60)
        vals = rng.randint(0, 8, size=n)  # heavy ties
        ranks = rank_with_ties(vals)
        assert ranks.sum() == pytest.approx(n * (n + 1) / 2, abs=0.0)


def test_non_finite_rejected():
    with pytest.raises(InputError):
        rank_with_ties([1.0, float("nan")])
    with pytest.raises(InputError):
        rank_with_ties([1.0, float("inf")])


def test_tie_term():
    # two ties of size 2: 2*(8-2) = 12
    assert ranks_and_ties(np.array([1.0, 1, 2, 2, 3]))[1] == 12.0
    assert ranks_and_ties(np.array([1.0, 2, 3]))[1] == 0.0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(VALUES)
@example([3.0])
@example([7.0] * 9)
@example([-0.0, 0.0, -0.0, 0.0])
@example([0.0, 1.0, -0.0, 1.0, 1.0, 0.0])
def test_ranks_and_tie_term_match_the_loop_oracle_bit_for_bit(values):
    want_ranks, want_ties = midranks_oracle(values)
    ranks, ties = ranks_and_ties(np.asarray(values, dtype=float))
    assert ranks.dtype == np.float64
    assert ranks.tobytes() == want_ranks.tobytes()
    assert rank_with_ties(values).tobytes() == want_ranks.tobytes()
    assert ties == want_ties
