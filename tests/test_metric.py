import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.budget import BudgetExceeded
from sandlab.lattice import (
    constant,
    grid_config,
    height_at,
    line_config,
    periodic_config,
    shift,
)
from sandlab.metric import (
    HolePresent,
    UNDETERMINED,
    beta,
    dist_ground,
    dist_top,
    distance_exponent,
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


def test_zeta_decode_column():
    # masks over [4, 6], bit v at height 4 + v
    assert zeta_decode_column(0b011, 4, 6) == 5
    assert zeta_decode_column(0b001, 4, 6) == 4
    assert zeta_decode_column(0b000, 4, 6) is UNDETERMINED
    assert zeta_decode_column(0b111, 4, 6) is UNDETERMINED
    for holed in (0b101, 0b010):  # a 0 below a 1
        with pytest.raises(HolePresent):
            zeta_decode_column(holed, 4, 6)
    with pytest.raises(ValueError, match="length"):
        zeta_decode_column(0b1011, 4, 6)


def test_encode_decode_round_trip():
    x = line_config([3, -1, 0, 5], -2, 0, 0)
    st_ = zeta_window(x, (-3, 3), (-7, 7))
    for c, i in enumerate(range(-3, 4)):
        assert zeta_decode_column((1 << st_.tops[c]) - 1, -7, 7) == (
            x.core[i + 2] if -2 <= i <= 1 else 0
        )


# --- the closed forms against the cylinder definitions ----------------------


def _scan_cap(x, y) -> int:
    idx = x.extent() + y.extent() + 2
    finite = [abs(v) for v in x.heights() + y.heights() if isinstance(v, int)]
    return idx + max(finite, default=0) + 2


def naive_distance(x, y, cylinder) -> Fraction:
    """2^-r for the least radius r whose cylinders around 0 differ."""
    if x == y:
        return Fraction(0)
    zero = (0,) * x.dim
    for r in range(_scan_cap(x, y) + 1):
        if cylinder(x, zero, r) != cylinder(y, zero, r):
            return Fraction(1, 2**r)
    raise AssertionError("distinct configurations with no differing cylinder")


heights = st.one_of(
    st.integers(min_value=-6, max_value=6), st.sampled_from([PLUS_INF, MINUS_INF])
)


@st.composite
def configurations(draw, dim):
    if dim == 2:
        w = draw(st.integers(min_value=1, max_value=3))
        rows = draw(st.lists(st.lists(heights, min_size=w, max_size=w), max_size=3))
        origin = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        return grid_config(rows, origin, draw(heights))
    kind = draw(st.sampled_from(["core", "step", "periodic"]))
    if kind == "periodic":
        return periodic_config(draw(st.lists(heights, min_size=1, max_size=7)))
    left = draw(heights)
    right = draw(heights) if kind == "step" else left
    core = draw(st.lists(heights, max_size=5))
    return line_config(core, draw(st.integers(-4, 4)), left, right)


@st.composite
def config_pairs(draw):
    dim = draw(st.sampled_from([1, 2]))
    x = draw(configurations(dim))
    how = draw(st.sampled_from(["independent", "shifted"]))
    if how == "shifted":
        k = draw(st.integers(-4, 4))
        y = shift(x, k if dim == 1 else (k, draw(st.integers(-4, 4))))
    else:
        y = draw(configurations(dim))
    return x, y


@settings(max_examples=600, deadline=None)
@given(config_pairs())
def test_closed_forms_match_cylinder_definitions(pair):
    x, y = pair
    for a, b in (pair, (y, x)):
        assert dist_ground(a, b) == naive_distance(a, b, ground_cylinder)
        assert dist_top(a, b) == naive_distance(a, b, top_cylinder)


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (4, 7), (5, 6), (7, 9)])
def test_closed_forms_on_coprime_periods(p, q):
    # the scan ends at p + q + 1, short of the common period p * q; the
    # cylinder loop has no such bound, so it checks that nothing farther
    # could give a smaller radius
    rand = random.Random(p * q)
    for _ in range(200):
        x = periodic_config([rand.choice([0, 1, 9, PLUS_INF]) for _ in range(p)])
        y = periodic_config([rand.choice([0, 1, 9, MINUS_INF]) for _ in range(q)])
        for a, b in ((x, y), (y, x)):
            assert dist_ground(a, b) == naive_distance(a, b, ground_cylinder)
            assert dist_top(a, b) == naive_distance(a, b, top_cylinder)


def test_scan_reads_across_row_chunks():
    # 1-d rows are read in chunks of 8, 16, ... sites on each side
    for s in (*range(-40, 41), 4000, -4100, 9000):
        assert distance_exponent(line_config([1], s), constant(0)) == abs(s)
    x = line_config([1], 20, 0, 0)
    assert dist_ground(x, constant(0)) == naive_distance(x, constant(0), ground_cylinder)


def test_closed_form_takes_the_least_radius_over_sites():
    # the centres 30 and 20 separate only at radius 20, the piles 5 and 9 at
    # sites -1 and 2 at radius 5, and 30 against 0 at site 3 at radius 3
    x, y = periodic_config([30, 0, 5]), periodic_config([20, 0, 9, 0, 9])
    assert distance_exponent(x, y) == 3
    assert dist_ground(x, y) == naive_distance(x, y, ground_cylinder) == Fraction(1, 8)


def test_distance_exponent_is_none_iff_equal():
    x = line_config([3, PLUS_INF], -1, 0, 2)
    assert distance_exponent(x, x) is None and distance_exponent(x, x, top=True) is None
    assert distance_exponent(constant(7), constant(7, 1)) is None
    assert distance_exponent(constant(0), constant(5)) == 0
    assert distance_exponent(constant(0), constant(5), top=True) == 0
    with pytest.raises(ValueError, match="dimension"):
        distance_exponent(constant(0), constant(0, 2))


def test_distance_exponent_is_charged_to_the_budget(monkeypatch):
    x, y = constant(50), constant(51)
    assert dist_ground(x, y) == Fraction(1, 2**50)
    monkeypatch.setenv("SANDLAB_BUDGET", "10")
    with pytest.raises(BudgetExceeded, match="distance: 50 "):
        dist_ground(x, y)
    assert dist_top(x, y) == 1  # the centres differ: exponent 0
    # with a cap nothing is charged
    assert distance_exponent(constant(10**12), constant(10**12 + 1), cap=64) == 64
    assert distance_exponent(line_config([1], 40), constant(0), cap=64) == 40


def test_scan_is_charged_as_it_goes(monkeypatch):
    # the configurations differ only far out: the walk stops once the
    # sites it has read, (2d+1)^dim, pass the budget
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match="distance: 1001 enumerations exceed"):
        distance_exponent(line_config([1], 10**12), constant(0))
    with pytest.raises(BudgetExceeded, match="distance: 1089 enumerations exceed"):
        distance_exponent(grid_config([[1]], (10**9, 0)), constant(0, 2))
    assert distance_exponent(line_config([1], 10**12), constant(0), cap=64) == 64
    assert distance_exponent(line_config([1], 400), constant(0)) == 400


def test_scan_reads_rows_in_bounded_chunks(monkeypatch):
    # a walk out to ring 10^5 holds a few thousand sites at a time
    monkeypatch.setenv("SANDLAB_BUDGET", "200000")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="distance: 200001 "):
            distance_exponent(line_config([1], 10**12), constant(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
