import random
from itertools import product

import pytest

from sandlab.bridge import (
    build_ca_from_sa,
    check_conjugacy_on,
    check_invariance,
    check_column_preservation,
    column_preservation_violation,
    decide_sa,
    invariance_violation,
)
from sandlab.ca import CaRule, flat_from_masks, neighborhood_index, table_rule
from sandlab.dsl import parse_rule
from sandlab.lattice import line_config, periodic_config
from sandlab.metric import StaircasePattern, beta
from sandlab.nilpotency import make_collapse
from sandlab.sa import Range, dense_rule, identity_rule, raise_rule, step

from samplers import column_is_monotone, conjugacy_witness, sample_table_rules


def test_bridge_dimensions():
    g = build_ca_from_sa(make_collapse(1, 1))
    assert (g.dim, g.radius, g.states) == (2, 2, 2)


def _flat_bridge_rule(f):
    """The bridge rule read off a flat neighborhood, cell by cell: the
    naive reference for the column-mask rule of ``build_ca_from_sa``."""
    r = f.radius
    side = 4 * r + 1
    center = 2 * r

    def g(flat: tuple) -> int:
        cols = [flat[c * side : (c + 1) * side] for c in range(side)]
        central = cols[center]
        if any(not column_is_monotone(col) for col in cols):
            return central[center]
        t = sum(central)
        if not r + 1 <= t <= 3 * r:
            return central[center]
        entries = [beta(r, t, sum(cols[center + o])) for o in range(-r, r + 1) if o]
        delta = f.apply(Range(1, r, tuple(entries)))
        return 1 if t - (2 * r + 1) + delta >= 0 else 0

    return g


def _bridge_test_rules(r: int, rand: random.Random):
    guarded = parse_rule(
        f"sarule v1\ndim 1\nradius {r}\n"
        f"case R[-{r}] >= 2 && R[1] < 0 => 1\n"
        f"case R[{r}] == -inf || R[-1] <= -1 => -1\n"
        "default => 0\n"
    ).to_rule()
    n = (2 * r + 3) ** (2 * r)
    tables = [dense_rule(1, r, [rand.randint(-r, r) for _ in range(n)]) for _ in range(3)]
    return [make_collapse(r, 1), guarded] + tables


@pytest.mark.parametrize("r", [1, 2])
def test_bridge_rule_matches_flat_reference(r):
    rand = random.Random(r)
    rho = 2 * r
    span = 2 * rho + 1
    hole_free = [(1 << t) - 1 for t in range(span + 1)]
    if r == 1:
        keys = list(product(hole_free, repeat=span))
    else:  # (span + 1) ** span = 10^9 hole-free keys: sample them
        keys = [tuple(rand.choice(hole_free) for _ in range(span)) for _ in range(3000)]
    keys += [tuple(rand.getrandbits(span) for _ in range(span)) for _ in range(3000)]
    # a hole in one column only, the others hole-free
    holed = [m for m in range(1 << span) if m & (m + 1)]
    for _ in range(1000):
        key = [rand.choice(hole_free) for _ in range(span)]
        key[rand.randrange(span)] = rand.choice(holed)
        keys.append(tuple(key))
    for f in _bridge_test_rules(r, rand):
        g, ref = build_ca_from_sa(f), _flat_bridge_rule(f)
        for key in keys:
            assert g.apply_masks(key) == ref(flat_from_masks(key, rho)), (f.name, key)


def test_binary_table_reads_masks():
    rand = random.Random(5)
    table = [rand.randint(0, 1) for _ in range(512)]
    g = table_rule(2, 1, 2, table)
    for key in product(range(8), repeat=3):
        assert g.apply_masks(key) == table[neighborhood_index(2, flat_from_masks(key, 1))]


def test_conjugacy_collapse():
    w = conjugacy_witness(make_collapse(1, 1), samples=40, n_steps=3, seed=0)
    assert w is None, w


def test_conjugacy_raise_and_identity():
    for f in (raise_rule(), identity_rule()):
        w = conjugacy_witness(f, samples=25, n_steps=3, seed=1)
        assert w is None, (f.name, w)


def test_conjugacy_random_rules():
    for f in sample_table_rules(5, seed=2):
        w = conjugacy_witness(f, samples=20, n_steps=2, seed=3)
        assert w is None, (f.name, w)


def test_conjugacy_on_specific_configs(collapse1):
    g = build_ca_from_sa(collapse1)
    for x in (
        line_config([4, 1, 3], 0, 0, 0),
        periodic_config([0, 3]),
        line_config((), 0, -2, 2),
    ):
        assert check_conjugacy_on(collapse1, g, x, 3) is None


def test_decider_accepts_bridge(collapse1):
    rep = decide_sa(build_ca_from_sa(collapse1))
    assert rep.verdict == "IS_SA"


def test_decider_rejects_constant_one():
    g = table_rule(2, 1, 2, [1] * 512, name="CONST1")
    rep = decide_sa(g)
    assert rep.verdict == "NOT_SA"
    assert rep.failed_check == "COLUMN_PRESERVATION"
    assert column_preservation_violation(g, rep.witness)


def _corrupt_all_ones(g: CaRule) -> CaRule:
    full = (1,) * g.cells

    def fn(flat):
        if flat == full:
            return 0
        return g.apply_flat(flat)

    return CaRule(g.dim, g.radius, g.states, fn, name=f"CORRUPT({g.name})")


def test_decider_rejects_corrupted_bridge(collapse1):
    g = _corrupt_all_ones(build_ca_from_sa(collapse1))
    rep = decide_sa(g)
    assert rep.verdict == "NOT_SA"
    # the witness replays through the matching check
    if rep.failed_check == "INVARIANCE":
        assert invariance_violation(g, rep.witness)
    else:
        assert column_preservation_violation(g, rep.witness)


def test_extracted_rule_steps_like_original(collapse1):
    rep = decide_sa(build_ca_from_sa(collapse1), extract=True)
    f2 = rep.extracted
    rand = random.Random(4)
    from sandlab.sampling import random_configuration

    for _ in range(30):
        x = random_configuration(rand, dim=1)
        assert step(f2, x) == step(collapse1, x)


def test_extraction_agrees_on_narrow_ranges(collapse1):
    rep = decide_sa(build_ca_from_sa(collapse1), extract=True)
    f2 = rep.extracted
    # the extracted radius-4 rule, fed random ranges, must agree with the
    # original rule reading the same landscape at radius 1
    from sandlab.heights import MINUS_INF, PLUS_INF
    from sandlab.metric import beta
    from sandlab.sa import Range, realize_range

    rand = random.Random(6)
    vals = [MINUS_INF, PLUS_INF] + list(range(-4, 5))
    for _ in range(300):
        rng = Range(1, 4, tuple(rand.choice(vals) for _ in range(8)))
        arr = realize_range(rng)
        center = len(arr) // 2
        narrow = Range(
            1,
            1,
            tuple(beta(1, arr[center], arr[center + o]) for o in (-1, 1)),
        )
        assert f2.apply(rng) == collapse1.apply(narrow)


def test_invariance_window_counts(collapse1):
    g = build_ca_from_sa(collapse1)
    assert check_invariance(g) is None
    assert check_column_preservation(g) is None


def _naive_decision(g: CaRule):
    """(verdict, failed check, witness tops) from one validated pattern
    per window, in product order of the column tops."""
    rho = g.radius
    span = 2 * rho + 1
    for tops in product(range(span + 2), repeat=span):
        if invariance_violation(g, StaircasePattern(span, span + 1, tops)):
            return "NOT_SA", "INVARIANCE", tops
    for central in (span, 0):
        for rest in product(range(span + 1), repeat=span - 1):
            tops = rest[:rho] + (central,) + rest[rho:]
            if column_preservation_violation(g, StaircasePattern(span, span, tops)):
                return "NOT_SA", "COLUMN_PRESERVATION", tops
    return "IS_SA", None, None


def _decision(g: CaRule):
    rep = decide_sa(g)
    return rep.verdict, rep.failed_check, rep.witness and rep.witness.tops


def test_decider_first_witness_random_tables():
    rand = random.Random(11)
    for _ in range(40):
        table = [rand.randint(0, 1) for _ in range(512)]
        expected = _naive_decision(table_rule(2, 1, 2, table))
        assert _decision(table_rule(2, 1, 2, table)) == expected


def _shift_table(cell: int) -> list[int]:
    # a radius-1 shift reads one cell of the 3x3 window (flat index: 3 * column + row)
    table = [0] * 512
    for flat in product((0, 1), repeat=9):
        table[neighborhood_index(2, flat)] = flat[cell]
    return table


def _flipped(table: list[int], windows) -> list[int]:
    out = list(table)
    for cols in windows:
        out[neighborhood_index(2, flat_from_masks(cols, 1))] ^= 1
    return out


@pytest.mark.parametrize("cell", [4, 3, 5], ids=["identity", "raise", "lower"])
def test_decider_first_witness_flipped_shift_tables(cell):
    table = _shift_table(cell)
    assert _decision(table_rule(2, 1, 2, table)) == ("IS_SA", None, None)
    hole_free = list(product((0b000, 0b001, 0b011, 0b111), repeat=3))
    rand = random.Random(cell)
    for _ in range(30):
        flipped = _flipped(table, rand.sample(hole_free, rand.randint(1, 3)))
        expected = _naive_decision(table_rule(2, 1, 2, flipped))
        assert _decision(table_rule(2, 1, 2, flipped)) == expected


@pytest.mark.parametrize(
    "cell,flips,tops",
    [
        # filling the empty central column between two full ones keeps
        # every hole-free window hole-free but breaks the empty column
        (4, [(0b111, 0b000, 0b111), (0b111, 0b001, 0b111)], (3, 0, 3)),
        # a horizontal shift breaks both uniform columns; full is scanned first
        (1, [], (0, 3, 0)),
    ],
)
def test_decider_first_witness_column_preservation(cell, flips, tops):
    flipped = _flipped(_shift_table(cell), flips)
    expected = _naive_decision(table_rule(2, 1, 2, flipped))
    assert expected == ("NOT_SA", "COLUMN_PRESERVATION", tops)
    assert _decision(table_rule(2, 1, 2, flipped)) == expected


def _flip_one_key(g: CaRule, key: tuple) -> CaRule:
    bad = flat_from_masks(key, g.radius)

    def fn(flat):
        v = g.apply_flat(flat)
        return 1 - v if flat == bad else v

    return CaRule(g.dim, g.radius, g.states, fn, name=f"FLIP({g.name})")


@pytest.mark.parametrize("tops,upper", [((6, 6, 5, 6, 6), False), ((6, 6, 3, 2, 6), True)])
def test_decider_first_witness_late_in_radius2_scan(collapse1, tops, upper):
    # flip the lower or the upper neighborhood of one late invariance
    # window; saturated tops (6 = span + 1) share their lower mask with 5
    span = 5
    key = tuple(((1 << t) - 1) >> 1 if upper else ((1 << t) - 1) & 31 for t in tops)
    g = build_ca_from_sa(collapse1)
    expected = _naive_decision(_flip_one_key(g, key))
    assert expected[1] == "INVARIANCE"
    index = 0
    for t in expected[2]:
        index = index * (span + 2) + t
    assert index > (span + 2) ** span // 2
    assert _decision(_flip_one_key(g, key)) == expected
