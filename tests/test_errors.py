"""Property tests of the number-list rule and the CSV writer in
twinfuse.errors."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from twinfuse.errors import csv_rows, csv_text, finite_number, non_numbers

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


# Floats at the edges of the range, signed zero and the smallest subnormal.
FLOATS = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]))


@st.composite
def _tables(draw):
    """Column types, each int or float, and rows of matching Python values."""
    types = draw(st.lists(st.sampled_from([int, float]), min_size=1, max_size=6))
    cells = [st.integers() if t is int else FLOATS for t in types]
    return types, draw(st.lists(st.tuples(*cells), max_size=6))


def _bits(row):
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v)
            for v in row]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(table=_tables())
def test_csv_text_round_trips_through_csv_rows(table):
    types, rows = table
    header = ",".join(f"c{i}" for i in range(len(types)))
    back = list(csv_rows(csv_text(header, rows), "table", header, types))
    assert [n for n, _ in back] == list(range(2, len(rows) + 2))
    assert [_bits(row) for _, row in back] == [_bits(row) for row in rows]


def test_csv_text_examples():
    assert csv_text("a,b", []) == "a,b\n"
    assert (csv_text("a,b", [[1, -0.0], (2, 5e-324), [-3, 1e308]])
            == "a,b\n1,-0.0\n2,5e-324\n-3,1e+308\n")
