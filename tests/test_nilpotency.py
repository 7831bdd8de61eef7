import random

import pytest

from sandlab.lattice import constant, grid_config, line_config, periodic_config
from sandlab.nilpotency import (
    SpreadingCa,
    build_reduction,
    constant_zero_ca,
    detect_flatten,
    drift_between,
    find_ultimate_period,
    line_ca,
    make_collapse,
    min_ca,
    reduction_radius,
    xi_encode,
    xi_encode_line,
)
from sandlab.sa import dense_rule, identity_rule, raise_rule, step

from samplers import random_bounded_line, sample_table_rules


def test_collapse_reaches_minimum():
    f = make_collapse(1, 1)
    rand = random.Random(7)
    for _ in range(20):
        x = random_bounded_line(rand, max_width=8, hmax=5)
        rep = detect_flatten(f, x, 2000)
        assert rep.outcome == "CONVERGED"
        assert rep.limit == min(x.heights())


def test_flatten_rejects_unbounded():
    from sandlab.heights import PLUS_INF

    with pytest.raises(ValueError):
        detect_flatten(make_collapse(1, 1), line_config([PLUS_INF], 0, 0, 0), 10)


def test_flatten_not_converged_diagnostic():
    rep = detect_flatten(raise_rule(), constant(0), 5)
    # the raising orbit fixes nothing: constant but never fixed
    assert rep.outcome == "NOT_CONVERGED"


def test_flatten_not_converged_stable_radius():
    # the last two configurations differ first at site 3, pile 1 -> 0, where
    # their ground cylinders separate at radius 3: radii 0..2 are stable
    rep = detect_flatten(make_collapse(1, 1), line_config([1, 2, 3, 4, 5, 6, 7, 8, 9]), 3)
    assert (rep.outcome, rep.stable_radius) == ("NOT_CONVERGED", 2)
    rep = detect_flatten(raise_rule(), constant(0), 5)
    assert rep.stable_radius == 4  # constants 5 and 6 separate at radius 5
    rep = detect_flatten(make_collapse(1, 1), line_config([70] + [0] * 80 + [1]), 2)
    assert rep.stable_radius == 63  # capped at 64 stable radii


def test_flatten_not_converged_in_two_dimensions():
    rep = detect_flatten(make_collapse(1, 2), grid_config([[3, 0], [0, 5]]), 0)
    # the centre pile 3 -> 2 separates the ground cylinders at radius 2
    assert (rep.outcome, rep.stable_radius) == ("NOT_CONVERGED", 1)


def test_spreading_validation_rejects_non_spreading():
    with pytest.raises(ValueError):
        SpreadingCa((0, 1), 1, lambda nb: max(nb))


def test_reduction_radius():
    assert reduction_radius(min_ca()) == 2
    assert reduction_radius(SpreadingCa((0, 5), 1, lambda nb: 0)) == 5


def test_xi_encoding_shape():
    x = xi_encode([1, 0, 2], 0, c=0)
    assert x.core == (1, 0, 0, 0, 2)
    y = xi_encode([1], periodic=True)
    assert y == periodic_config([1, 0])


def test_reduction_commutes_with_encoding():
    rand = random.Random(11)
    for S in (constant_zero_ca(), min_ca()):
        F = build_reduction(S)
        for _ in range(25):
            y = line_ca(
                [rand.choice(S.states) for _ in range(rand.randint(1, 6))],
                rand.randint(-3, 3),
                0,
            )
            fx = xi_encode_line(y)
            for _ in range(4):
                y = S.step_line(y)
                fx = step(F, fx)
                assert fx == xi_encode_line(y)


def test_reduction_flattens_invalid_configurations():
    F = build_reduction(constant_zero_ca())
    rand = random.Random(13)
    for _ in range(20):
        x = random_bounded_line(rand, max_width=8, hmax=4)
        rep = detect_flatten(F, x, 10**4)
        assert rep.outcome == "CONVERGED", (x, rep)


@pytest.mark.parametrize("budget", [10, 1000])
def test_flatten_stops_at_a_non_constant_fixed_point(budget):
    from sandlab.dsl import parse_rule
    from sandlab.nilpotency import FlattenReport

    peaks = parse_rule("sarule v1\ndim 1\nradius 1\ncase R[-1] < 0 && R[1] < 0 => -1\ndefault => 0\n")
    cases = [
        (identity_rule(), line_config([2, 0, 3])),
        (identity_rule(1, 2), grid_config([[1, 0], [0, 2]], (0, 0), 0)),
        (peaks.to_rule(), line_config([3, 3, 0, 5])),  # fixed from step 5 on
    ]
    for f, x in cases:
        rep = detect_flatten(f, x, budget)
        assert rep == FlattenReport("NOT_CONVERGED", budget=budget, stable_radius=63), (f.name, rep)


def test_min_reduction_fixed_point():
    F = build_reduction(min_ca())
    x = xi_encode([1], periodic=True)
    cur = x
    for _ in range(50):
        cur = step(F, cur)
        assert cur == x


def test_drift_between():
    x = line_config([1, 2], 0, 0, 0)
    from sandlab.lattice import raise_by

    assert drift_between(x, raise_by(x, 3)) == 3
    assert drift_between(x, line_config([1, 3], 0, 0, 0)) is None


def test_period_search_identity_and_raise():
    rep = find_ultimate_period(identity_rule(), 3)
    assert (rep.outcome, rep.preperiod, rep.period, rep.drift) == ("PERIODIC", 0, 1, 0)
    rep = find_ultimate_period(raise_rule(), 3)
    assert (rep.outcome, rep.preperiod, rep.period, rep.drift) == ("PERIODIC", 0, 1, 1)


# full reports at max_sum 2 and 3: (outcome, preperiod, period, drift, a,
# b, bound) and the witness's core and origin
_REFUTED_AT_0_1 = ("REFUTED", None, None, None, 0, 1, None)
_PINNED_PERIOD_REPORTS = {
    "COLLAPSE(1,1)": (_REFUTED_AT_0_1, ((-2, 0, -2), -1)),
    "COLLAPSE(2,1)": (_REFUTED_AT_0_1, ((-3, -3, 0, -3, -3), -2)),
    "IDENTITY": (("PERIODIC", 0, 1, 0, None, None, None), None),
    "RAISE": (("PERIODIC", 0, 1, 1, None, None, None), None),
    "LOWER-BUT-TWO": (("PERIODIC", 1, 1, -1, None, None, None), None),
    "RAISE-BUT-ONE": (("PERIODIC", 1, 1, 1, None, None, None), None),
}
# every sampled table rule is refuted at (0, 1) on the same neighborhoods
_RANDOM_REPORT = (_REFUTED_AT_0_1, ((-2, 0, -2) + (0,) * 10 + (-2, 0, -1), -1))


def _all_but(v: int, *indices: int):
    """A radius-1 table of v, with 0 at the given range indices."""
    table = [v] * 25
    for i in indices:
        table[i] = 0
    return table


def test_period_search_reports_are_pinned():
    rules = [make_collapse(1, 1), make_collapse(2, 1), identity_rule(), raise_rule()]
    # periodic only from step 1, so found by the exhaustive (1, 1) check
    rules += [
        dense_rule(1, 1, _all_but(-1, 1, 6), "LOWER-BUT-TWO"),
        dense_rule(1, 1, _all_but(1, 22), "RAISE-BUT-ONE"),
    ]
    for f in rules + sample_table_rules(8, seed=11):
        fields, witness = _PINNED_PERIOD_REPORTS.get(f.name, _RANDOM_REPORT)
        want = None if witness is None else line_config(*witness, 0, 0)
        for max_sum in (2, 3):
            rep = find_ultimate_period(f, max_sum)
            got = (rep.outcome, rep.preperiod, rep.period, rep.drift, rep.a, rep.b, rep.bound)
            assert (got, rep.witness) == (fields, want), (f.name, max_sum)


def test_period_search_refutes_collapse():
    rep = find_ultimate_period(make_collapse(1, 1), 3)
    assert rep.outcome == "REFUTED"
    assert rep.witness is not None
    # replay the witness
    f = make_collapse(1, 1)
    cur = rep.witness
    for _ in range(rep.a):
        cur = step(f, cur)
    xa = cur
    for _ in range(rep.b - rep.a):
        cur = step(f, cur)
    assert drift_between(xa, cur) is None
