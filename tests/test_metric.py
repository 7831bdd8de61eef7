import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.lattice import constant, height_at, line_config, periodic_config
from sandlab.metric import (
    HolePresent,
    UNDETERMINED,
    beta,
    column_is_monotone,
    dist_ground,
    dist_top,
    ground_cylinder,
    top_cylinder,
    zeta_decode_column,
    zeta_window,
)
from sandlab.sampling import random_configuration


def test_beta_saturates():
    assert beta(2, 10, 13) == PLUS_INF
    assert beta(2, 10, 7) == MINUS_INF
    assert beta(2, 10, 12) == 2
    assert beta(2, 10, 8) == -2
    assert beta(1, 0, PLUS_INF) == PLUS_INF


def test_beta_needs_finite_reference():
    with pytest.raises(ValueError):
        beta(1, PLUS_INF, 0)


# the reconstructed figure configuration: heights 5,-2,1,4,2,2,5 around 0
FIG = line_config([5, -2, 1, 4, 2, 2, 5], -3)


def test_figure_top_cylinder():
    assert top_cylinder(FIG, 0, 3).entries == (1, MINUS_INF, -3, 4, -2, -2, 1)


def test_figure_ground_cylinder():
    assert ground_cylinder(FIG, 0, 3).entries == (PLUS_INF, -2, 1, PLUS_INF, 2, 2, PLUS_INF)


def test_top_cylinder_at_infinite_center_uses_ground_reference():
    x = line_config([PLUS_INF, 3], 0, 0, 0)
    cyl = top_cylinder(x, 0, 1)
    assert cyl.entries == (0, PLUS_INF, PLUS_INF)


def test_distance_zero_iff_equal():
    a = periodic_config([1, 2])
    assert dist_ground(a, periodic_config([1, 2, 1, 2])) == 0
    assert dist_top(a, a) == 0
    assert dist_ground(a, periodic_config([2, 1])) > 0


def test_distance_is_dyadic():
    x = constant(0)
    y = line_config([1], 3, 0, 0)
    d = dist_ground(x, y)
    assert d == Fraction(1, 8)


def test_top_distance_center_flip():
    x = constant(0)
    y = line_config([1], 0, 0, 0)
    assert dist_top(x, y) == 1  # centers differ already at radius 0
    z = line_config([PLUS_INF], 3, 0, 0)
    assert dist_top(x, z) == Fraction(1, 8)


def test_ground_distance_saturation_threshold():
    # an infinite pile and a pile of 10 look alike until radius 10
    x = line_config([PLUS_INF], 0, 0, 0)
    y = line_config([10], 0, 0, 0)
    assert dist_ground(x, y) == Fraction(1, 2**10)


def test_all_infinite_top_cylinder():
    x = line_config([PLUS_INF] * 3, -1, PLUS_INF, PLUS_INF)
    assert top_cylinder(x, 0, 1).entries == (PLUS_INF, PLUS_INF, PLUS_INF)


@given(st.integers(min_value=0, max_value=10))
def test_perfectness_shape(n):
    x = constant(0)
    y = line_config([PLUS_INF], n, 0, 0)
    assert dist_ground(x, y) == Fraction(1, 2**n)


@given(
    st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
    st.lists(st.integers(min_value=-4, max_value=4), max_size=5),
)
def test_metric_axioms(a, b):
    x = line_config(a, 0, 0, 0)
    y = line_config(b, 0, 0, 0)
    z = constant(0)
    dxy, dyx = dist_ground(x, y), dist_ground(y, x)
    assert dxy == dyx
    assert dist_ground(x, z) <= max(dxy, dist_ground(y, z)) or dxy == 0


def test_top_cylinder_off_center_is_relative():
    from sandlab.lattice import raise_by

    x = line_config([3, 1], 0, 0, 0)
    y = raise_by(x, 7)
    # only the center entry records the absolute height; the rest is
    # measured from the pile top and ignores uniform raising
    a = top_cylinder(x, 0, 2).entries
    b = top_cylinder(y, 0, 2).entries
    assert a[:2] == b[:2] and a[3:] == b[3:]
    assert b[2] - a[2] == 7


def test_zeta_window_values():
    x = line_config([2], 0, 0, 0)
    st_ = zeta_window(x, (-1, 1), (0, 3))
    assert st_.tops == (1, 3, 1)
    assert st_.bit(2, 3) == 1 and st_.bit(2, 4) == 0


def test_zeta_window_saturation():
    x = line_config([PLUS_INF, MINUS_INF], 0, 0, 0)
    st_ = zeta_window(x, (0, 1), (-2, 2))
    assert st_.tops == (5, 0)


def test_zeta_window_matches_definition():
    """Cell (i, k) is 1 iff the pile at i holds at least k grains."""
    rand = random.Random(11)
    for _ in range(2000):
        x = random_configuration(rand)
        hlo = rand.randint(-10, 10)
        hhi = hlo + rand.randint(0, 12)
        vlo = rand.randint(-8, 8)
        vhi = vlo + rand.randint(0, 10)
        tops = tuple(
            sum(1 for k in range(vlo, vhi + 1) if height_at(x, i) >= k) for i in range(hlo, hhi + 1)
        )
        st_ = zeta_window(x, (hlo, hhi), (vlo, vhi))
        assert (st_.width, st_.height, st_.tops) == (hhi - hlo + 1, vhi - vlo + 1, tops)


@pytest.mark.parametrize("horiz,vert", [((0, -1), (0, 3)), ((3, 0), (0, 3)), ((0, 3), (2, 1))])
def test_zeta_window_rejects_empty_intervals(horiz, vert):
    with pytest.raises(ValueError, match="empty"):
        zeta_window(line_config([2]), horiz, vert)


def test_column_monotone_and_holes():
    assert column_is_monotone([1, 1, 0, 0])
    assert not column_is_monotone([1, 0, 1])


def test_zeta_decode_column():
    assert zeta_decode_column([1, 1, 0], 4, 6) == 5
    assert zeta_decode_column([1, 1, 1], 4, 6) is UNDETERMINED
    assert zeta_decode_column([1, 1, 1], 4, 6, saturated_above=True) == PLUS_INF
    assert zeta_decode_column([0, 0, 0], 4, 6, saturated_below=True) == MINUS_INF
    with pytest.raises(HolePresent):
        zeta_decode_column([0, 1, 0], 4, 6)


def test_encode_decode_round_trip():
    x = line_config([3, -1, 0, 5], -2, 0, 0)
    st_ = zeta_window(x, (-3, 3), (-7, 7))
    for c, i in enumerate(range(-3, 4)):
        col = [st_.bit(c + 1, v) for v in range(1, st_.height + 1)]
        assert zeta_decode_column(col, -7, 7) == (
            x.core[i + 2] if -2 <= i <= 1 else 0
        )
