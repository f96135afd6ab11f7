"""Property tests of the number-list rule in twinfuse.errors."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.errors import finite_number, non_numbers

# Edge values: not finite, at the float range, past it as ints.
EDGES = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308,
                         -1e308, 10**400, -10**400])
NUMBERS = st.one_of(st.integers(), st.floats(), EDGES)
ITEMS = st.one_of(NUMBERS, st.booleans(), st.text(max_size=3), st.none(),
                  st.floats().map(np.float64),
                  st.floats(width=32).map(np.float32),
                  st.integers(-2**63, 2**63 - 1).map(np.int64))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values=st.one_of(st.lists(NUMBERS, max_size=8),
                        st.lists(ITEMS, max_size=8)),
       as_tuple=st.booleans())
def test_non_numbers_is_the_item_rule(values, as_tuple):
    values = tuple(values) if as_tuple else values
    bad = non_numbers(values)
    assert (not bad) == all(map(finite_number, values))
    if bad:  # the first item reported is the first one finite_number refuses
        assert bad[0] is next(v for v in values if not finite_number(v))


def test_non_numbers_examples():
    assert non_numbers([1, 2.5, np.float64(3.0)]) == []
    assert non_numbers((1e308, 1e308, -1e308)) == []  # its sum overflows
    assert non_numbers([10**400, -10**400, 1.0]) == [10**400, -10**400]
    assert non_numbers([1.0, True, "1.5", None]) == [True, "1.5", None]
    f32, i64 = np.float32(1.0), np.int64(1)
    assert non_numbers([f32, i64, 0]) == [f32, i64]
