import pytest
from hypothesis import example, given, settings, strategies as st

from sandlab.heights import MINUS_INF, PLUS_INF, add, check_height, format_height, parse_height
from sandlab.lattice import (
    Kind,
    constant,
    grid_config,
    height_at,
    line_config,
    periodic_config,
    raise_by,
    read_row,
    shift,
)


def test_height_parsing_round_trip():
    for v in (0, -5, 123, PLUS_INF, MINUS_INF):
        assert parse_height(format_height(v)) == v


def test_height_overflow_checked():
    with pytest.raises(OverflowError):
        check_height(2**63)
    with pytest.raises(OverflowError):
        add(2**63 - 1, 1)
    assert add(PLUS_INF, -5) == PLUS_INF


def test_bool_is_not_a_height():
    with pytest.raises(TypeError):
        check_height(True)


def test_line_config_canonicalizes_core():
    x = line_config([0, 0, 3, 0, 0], -2, 0, 0)
    assert x.core == (3,)
    assert x.origin == 0
    assert x == line_config([3], 0, 0, 0)


def test_constant_config():
    x = constant(4)
    assert x.is_constant()
    assert height_at(x, 123456) == 4


def test_step_configuration_is_canonical():
    x = line_config([-1, -1, 3, 3], -2, -1, 3)
    assert x.core == ()
    assert x.origin == 0
    assert height_at(x, -1) == -1 and height_at(x, 0) == 3


def test_periodic_least_period():
    x = periodic_config([1, 2, 1, 2])
    assert x.period == 2
    assert periodic_config([5, 5, 5]) == constant(5)


def test_period_one_equals_constant():
    assert periodic_config([7]).kind is Kind.EVENTUALLY_CONSTANT


def test_height_at_periodic_negative_indices():
    x = periodic_config([10, 20, 30])
    assert height_at(x, -1) == 30
    assert height_at(x, -3) == 10


def test_shift_round_trip():
    x = line_config([1, 2, 3], -1, 0, 5)
    assert shift(shift(x, 4), -4) == x
    for i in range(-5, 6):
        assert height_at(shift(x, 2), i) == height_at(x, i + 2)


def test_shift_periodic_rotates():
    x = periodic_config([1, 2, 3])
    y = shift(x, 1)
    for i in range(-4, 5):
        assert height_at(y, i) == height_at(x, i + 1)


def test_raise_by_commutes_with_shift():
    x = line_config([1, PLUS_INF, -2], 0, 3, 3)
    assert raise_by(shift(x, 2), 5) == shift(raise_by(x, 5), 2)
    assert height_at(raise_by(x, 5), 1) == PLUS_INF


def test_grid_config_trims_all_sides():
    x = grid_config([[0, 0, 0], [0, 7, 0], [0, 0, 0]], (-1, -1), 0)
    assert x.core == ((7,),)
    assert x.origin == (0, 0)
    assert height_at(x, (0, 0)) == 7
    assert height_at(x, (5, 5)) == 0


_heights = st.one_of(st.integers(-6, 6), st.sampled_from([PLUS_INF, MINUS_INF]))
# eventually constant (steps and empty cores included) and periodic rows
_rows = st.one_of(
    st.builds(line_config, st.lists(_heights, max_size=6), st.integers(-5, 5), _heights, _heights),
    st.builds(periodic_config, st.lists(_heights, min_size=1, max_size=6)),
)


@settings(max_examples=500, deadline=None)
@given(_rows, st.integers(-9, 9), st.integers(-9, 9))
@example(line_config([1, 2], 0, 9, 9), -1, 1)
def test_read_row_matches_height_at(x, dlo, dhi):
    """Windows left of, across, inside and right of the core (or one
    period), and empty ones, read as the per-index reference does."""
    a, b = (0, x.period) if x.kind is Kind.PERIODIC else (x.origin, x.origin + len(x.core))
    lo, hi = a + dlo, b - 1 + dhi
    assert read_row(x, lo, hi) == [height_at(x, i) for i in range(lo, hi + 1)]


def test_read_row_values_and_dimension():
    assert read_row(line_config([1, 2], 0, 9, 9), -1, 2) == [9, 1, 2, 9]
    with pytest.raises(ValueError):
        read_row(grid_config([[7]]), 0, 1)
