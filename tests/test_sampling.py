import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifncheck.errors import InvalidParameter
from ifncheck.sampling import SamplingPlan, sorted_unique

# duplicates, both zeros, subnormals and NaN, mixed with arbitrary floats
_TRICKY = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, float("nan"), float("inf")]


@given(st.lists(st.one_of(st.sampled_from(_TRICKY), st.floats()), max_size=200))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sorted_unique_is_np_unique_bit_for_bit(values):
    values = np.asarray(values, dtype=float)
    expected, got = np.unique(values), sorted_unique(values)
    # equal bit patterns: the same values, the same sign bits, in the same order
    assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert np.signbit(got).tolist() == np.signbit(expected).tolist()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["t_grid", "t_infinity_ladder"])
def test_plan_times_must_be_finite(field, bad):
    # a NaN t would let axiom violations rest on NaN, and an infinite t
    # makes mu = t / (t + k||x||) divide inf by inf
    times = {"t_grid": (bad, 1.0), "t_infinity_ladder": (10.0, bad)}[field]
    with pytest.raises(InvalidParameter, match=field):
        SamplingPlan(np.zeros((3, 1)), **{field: times})
