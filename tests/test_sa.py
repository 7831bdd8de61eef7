import random

import pytest

from sandlab.heights import MINUS_INF, PLUS_INF, is_finite
from sandlab.lattice import height_at, line_config, periodic_config, raise_by, read_row, shift
from sandlab.metric import ground_cylinder
from sandlab.nilpotency import make_collapse
from sandlab.sa import (
    CenterInfiniteError,
    all_ranges,
    dense_rule,
    flat_range,
    identity_rule,
    iterate_local_rule,
    oracle_step_window,
    orbit,
    raise_rule,
    range_at,
    range_index,
    realize_range,
    step,
)
from sandlab.sampling import random_configuration

from samplers import random_table_rule, sample_table_rules


def test_range_index_round_trip():
    # one-to-one onto the dense-table indices: 5**2 and 7**4 ranges
    for r, n in [(1, 25), (2, 2401)]:
        assert sorted(range_index(rng) for rng in all_ranges(1, r)) == list(range(n))


def test_range_at_reads_saturated_neighbors():
    x = line_config([5, 1, -9], 0, 0, 0)
    rng = range_at(x, 1, 1)
    assert rng.entry(-1) == PLUS_INF
    assert rng.entry(1) == MINUS_INF


def test_range_at_infinite_center_raises():
    x = line_config([PLUS_INF], 0, 0, 0)
    with pytest.raises(CenterInfiniteError):
        range_at(x, 0, 1)


def test_table_rule_validation():
    with pytest.raises(ValueError, match="25 entries"):
        dense_rule(1, 1, [0] * 10)
    with pytest.raises(ValueError, match=r"\[-r, r\]"):
        dense_rule(1, 1, [0] * 24 + [2])
    table = [(k % 3) - 1 for k in range(25)]
    f = dense_rule(1, 1, table)
    for rng in all_ranges(1, 1):
        assert f.apply(rng) == table[range_index(rng)]


def test_collapse_single_pile_orbit():
    f = make_collapse(1, 1)
    recs = orbit(f, line_config([2], 0, 0, 0), 3)
    assert [height_at(r.config, 0) for r in recs] == [2, 1, 0, 0]
    assert [r.step for r in recs] == [0, 1, 2, 3]


def test_raise_rule_moves_background():
    x = line_config([3], 0, 0, 0)
    y = step(raise_rule(), x)
    assert height_at(y, 0) == 4 and height_at(y, 50) == 1


def test_infinite_piles_are_fixed():
    f = make_collapse(1, 1)
    x = line_config([PLUS_INF, 4, MINUS_INF], 0, 0, 0)
    y = step(f, x)
    assert height_at(y, 0) == PLUS_INF
    assert height_at(y, 2) == MINUS_INF
    assert height_at(y, 1) == 3


def test_step_on_periodic_configuration():
    f = make_collapse(1, 1)
    x = periodic_config([0, 2])
    y = step(f, x)
    assert y == periodic_config([0, 1])


def test_step_dim2_collapse():
    from sandlab.lattice import grid_config

    f = make_collapse(1, 2)
    x = grid_config([[2]], (0, 0), 0)
    y = step(f, x)
    assert height_at(y, (0, 0)) == 1


def test_oracle_rejects_small_windows():
    f = make_collapse(1, 1)
    with pytest.raises(ValueError):
        oracle_step_window(f, [0, 0], 1)


def test_oracle_matches_step_on_samples():
    rand = random.Random(0)
    rules = sample_table_rules(5, seed=1) + [make_collapse(1, 1)]
    for t in range(60):
        f = rand.choice(rules)
        x = random_configuration(rand, dim=1)
        n = rand.randint(1, 3)
        r = f.radius
        lo, hi = -4, 4
        win = [height_at(x, i) for i in range(lo - n * r, hi + n * r + 1)]
        got = oracle_step_window(f, win, n)
        cur = x
        for _ in range(n):
            cur = step(f, cur)
        assert got == tuple(height_at(cur, i) for i in range(lo, hi + 1))


def test_realize_range_reads_back():
    from sandlab.metric import beta

    for rng in list(all_ranges(1, 1))[::17]:
        arr = realize_range(rng)
        R = rng.radius
        back = tuple(
            beta(R, arr[R], arr[R + o]) for o in range(-R, R + 1) if o != 0
        )
        assert back == rng.entries


def test_iterate_known_values():
    from sandlab.sa import Range

    f2 = iterate_local_rule(raise_rule(), 2)
    assert f2.apply(flat_range(1, f2.radius)) == 2
    f5 = iterate_local_rule(identity_rule(), 5)
    assert f5.apply(flat_range(1, f5.radius)) == 0
    g2 = iterate_local_rule(make_collapse(1, 1), 2)
    offs = [o for o in range(-g2.radius, g2.radius + 1) if o != 0]
    entries = tuple(-1 if o == 1 else 0 for o in offs)
    # a lone lower neighbor: the pile drops once, then stabilizes
    assert g2.apply(Range(1, g2.radius, entries)) == -1


def test_iterate_local_rule_two_steps():
    rand = random.Random(2)
    for f in sample_table_rules(5, seed=3):
        f2 = iterate_local_rule(f, 2)
        assert f2.radius == 4 * f.radius
        for _ in range(10):
            x = random_configuration(rand, dim=1)
            assert step(f2, x) == step(f, step(f, x))


def test_characterization_invariants_hold():
    """Shift and vertical commutation, infinity preservation and the
    uniform-continuity modulus w = 2 on sampled configurations."""
    w = 2
    for f in [make_collapse(1, 1), raise_rule(), identity_rule()] + sample_table_rules(3, seed=4):
        rand = random.Random(5)
        r = f.radius
        for _ in range(25):
            x = random_configuration(rand, dim=f.dim)
            fx = step(f, x)
            k = rand.randint(-3, 3)
            kk = k if f.dim == 1 else (k, rand.randint(-3, 3))
            assert step(f, shift(x, kk)) == shift(fx, kk), (f.name, "shift", x)
            m = rand.randint(-4, 4)
            assert step(f, raise_by(x, m)) == raise_by(fx, m), (f.name, "vertical", x)
            for probe in range(-2, 3):
                i = probe if f.dim == 1 else (probe, 0)
                a, b = height_at(x, i), height_at(fx, i)
                assert (a == PLUS_INF) == (b == PLUS_INF), (f.name, "infinity", x)
                assert (a == MINUS_INF) == (b == MINUS_INF), (f.name, "infinity", x)
            if f.dim == 1:
                # agree with x on [-(r+w), r+w], arbitrary elsewhere
                far = r + w + 1 + rand.randint(0, 2)
                core = read_row(x, -far, far)
                core[0] = rand.choice([MINUS_INF, PLUS_INF, core[0] if is_finite(core[0]) else 0, 17])
                core[-1] = rand.choice([MINUS_INF, PLUS_INF, -9, 3])
                y = line_config(core, -far, rand.randint(-3, 3), rand.randint(-3, 3))
                if ground_cylinder(x, 0, r + w) == ground_cylinder(y, 0, r + w):
                    got = ground_cylinder(step(f, y), 0, w)
                    assert got == ground_cylinder(fx, 0, w), (f.name, "modulus", x, y)


def test_rule_output_out_of_range_is_caught():
    from sandlab.bridge import build_ca_from_sa
    from sandlab.sa import FuncRule

    r = 1
    # a hole-free window of the bridge rule whose central top is r + 1
    key = ((1 << (r + 1)) - 1,) * (4 * r + 1)
    paths = [
        lambda f: f.apply(flat_range(1, r)),
        lambda f: oracle_step_window(f, [0] * (2 * r + 1), 1),
        lambda f: step(f, line_config((), 0, 0, 0)),  # the finite backgrounds move first
        lambda f: build_ca_from_sa(f).apply_masks(key),
    ]
    for memoize in (False, True):
        for path in paths:
            bad = FuncRule(1, r, lambda rng: 5, "BAD", memoize)
            for _ in range(2):
                with pytest.raises(ValueError, match="outside"):
                    path(bad)
            assert not bad._memo


# --- the stepping kernel against a naive per-pile reference -----------------


def naive_step(f, x):
    """Every pile recomputed on its own through ``range_at``."""
    from sandlab.heights import add
    from sandlab.lattice import Kind, grid_config

    r = f.radius

    def new(i):
        v = height_at(x, i)
        return v if not is_finite(v) else add(v, f.apply(range_at(x, i, r)))

    if x.kind is Kind.PERIODIC:
        return periodic_config([new(i) for i in range(x.period)])
    m = 2 * r + 1  # reach past the light cone, so the ends read backgrounds only
    if x.dim == 1:
        lo = x.origin - m
        hi = x.origin + len(x.core) - 1 + m
        return line_config([new(i) for i in range(lo, hi + 1)], lo, new(lo - 1), new(hi + 1))
    (o1, o2) = x.origin
    n1 = len(x.core)
    n2 = len(x.core[0]) if x.core else 0
    rows = [[new((a, b)) for b in range(o2 - m, o2 + n2 + m)] for a in range(o1 - m, o1 + n1 + m)]
    return grid_config(rows, (o1 - m, o2 - m), new((o1 - m - 1, o2 - m - 1)))


def _height(rand, p_inf=0.1):
    u = rand.random()
    if u < p_inf / 2:
        return PLUS_INF
    if u < p_inf:
        return MINUS_INF
    return rand.randint(-4, 4)


def _line_cases(rand, r):
    for _ in range(40):
        core = [_height(rand) for _ in range(rand.randint(0, 8))]
        left = _height(rand, 0.3)
        right = left if rand.random() < 0.3 else _height(rand, 0.3)
        yield line_config(core, rand.randint(-3, 3), left, right)


def _periodic_cases(rand, r):
    for p in range(2, 2 * r + 5):  # periods below, at and above the window 2r+1
        for _ in range(4):
            yield periodic_config([_height(rand) for _ in range(p)])


def _grid_cases(rand, r):
    from sandlab.lattice import grid_config

    for _ in range(15):
        w = rand.randint(1, 4)
        rows = [[_height(rand) for _ in range(w)] for _ in range(rand.randint(1, 4))]
        yield grid_config(rows, (rand.randint(-2, 2), rand.randint(-2, 2)), _height(rand, 0.3))


def _guarded_rule(dim, r):
    from sandlab.dsl import parse_rule

    if dim == 1:
        cases = [f"case R[{r}] >= 1 && R[-1] != -inf => 1", f"case R[-{r}] < 0 || R[1] == +inf => -1"]
    else:
        cases = [f"case R[{r},0] >= 1 && R[0,-1] != -inf => 1", f"case R[-1,{r}] < 0 || R[1,1] == +inf => -1"]
    text = "\n".join(["sarule v1", f"dim {dim}", f"radius {r}", *cases, "default => 0", ""])
    return parse_rule(text).to_rule()


def _kernel_rules(dim, r):
    from sandlab.sa import FuncRule

    rand = random.Random(10 * dim + r)
    unmemoized = FuncRule(dim, r, make_collapse(r, dim).fn, "COLLAPSE-NOMEMO", memoize=False)
    rules = [_guarded_rule(dim, r), make_collapse(r, dim), unmemoized]
    if (2 * r + 1) ** dim - 1 <= 4:  # dense tables stay small
        rules.append(random_table_rule(rand, r, dim))
    return rules


@pytest.mark.parametrize("shape", ["line", "periodic", "grid"])
@pytest.mark.parametrize("r", [1, 2])
def test_step_matches_naive_reference(shape, r):
    dim = 2 if shape == "grid" else 1
    cases = {"line": _line_cases, "periodic": _periodic_cases, "grid": _grid_cases}[shape]
    rand = random.Random(f"{shape}:{r}")
    configs = list(cases(rand, r))
    for f in _kernel_rules(dim, r):
        for x in configs:
            assert step(f, x) == naive_step(f, x), (f.name, x)


def test_step_matches_naive_reference_on_a_2d_table_rule():
    from sandlab.lattice import grid_config

    rand = random.Random(7)
    f = random_table_rule(rand, 1, 2)
    for x in list(_grid_cases(rand, 1)) + [grid_config([[PLUS_INF, 1], [0, MINUS_INF]], (0, 0), PLUS_INF)]:
        assert step(f, x) == naive_step(f, x)


@pytest.mark.parametrize("dim", [1, 2])
def test_bound_is_checked_on_memo_hits(dim):
    from sandlab.lattice import grid_config
    from sandlab.sa import FuncRule

    if dim == 1:
        # infinite backgrounds: every evaluation happens inside the kernel
        configs = [periodic_config([0, 0, 0, 5, 5, 5]), line_config([0] * 6, 0, MINUS_INF, MINUS_INF)]
    else:
        configs = [grid_config([[0] * 4] * 4, (0, 0), MINUS_INF)]
    for x in configs:
        bad = FuncRule(dim, 1, lambda rng: 5, "BAD", memoize=True)
        with pytest.raises(ValueError):
            step(bad, x)
        assert 5 not in bad._memo.values()
        with pytest.raises(ValueError):
            step(bad, x)


def test_step_is_budgeted(monkeypatch):
    from sandlab.budget import BudgetExceeded
    from sandlab.dsl import parse_rule
    from sandlab.lattice import constant, grid_config

    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    f = parse_rule("sarule v1\ndim 2\nradius 3\ndefault => 0\n").to_rule()
    with pytest.raises(BudgetExceeded):
        step(f, grid_config([[1]], (0, 0), 0))  # 49 piles x 48 entries
    # radius 1: 9 piles x 8 entries fit
    assert step(make_collapse(1, 2), grid_config([[1]], (0, 0), 0)) == constant(0, dim=2)


def test_step_is_charged_before_it_allocates(monkeypatch):
    import tracemalloc

    from sandlab.budget import BudgetExceeded
    from sandlab.lattice import constant

    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    f = identity_rule(radius=10**5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            step(f, line_config([2]))
        # a constant configuration still reads one flat range of 2r entries
        with pytest.raises(BudgetExceeded, match="step: 200000 enumerations"):
            step(f, constant(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_range_entry_lookup():
    from sandlab.sa import Range

    rng = Range(2, 1, tuple(range(8)))
    assert rng.entry((-1, -1)) == 0 and rng.entry((1, 1)) == 7 and rng.entry([0, 1]) == 4
    with pytest.raises(ValueError):
        rng.entry((0, 0))
    with pytest.raises(ValueError):
        rng.entry((2, 0))
    assert Range(1, 2, (1, 2, 3, 4)).entry(-1) == 2


def test_step_evaluates_the_rule_at_finite_piles_only():
    from sandlab.lattice import grid_config
    from sandlab.sa import FuncRule

    for x, finite in [
        (line_config([PLUS_INF, 0, 3, MINUS_INF], 0, PLUS_INF, MINUS_INF), 2),
        (periodic_config([0, PLUS_INF, MINUS_INF]), 1),
        (grid_config([[0, PLUS_INF], [MINUS_INF, 1]], (0, 0), MINUS_INF), 2),
    ]:
        seen = []
        f = FuncRule(x.dim, 1, lambda rng: seen.append(rng) or 0, "COUNT")
        step(f, x)
        assert len(seen) == finite


def test_library_rules_evaluate_each_range_once(data_dir):
    from sandlab.dsl import parse_rule
    from sandlab.lattice import grid_config
    from sandlab.nilpotency import build_reduction, min_ca

    rand = random.Random(3)
    rules = [
        make_collapse(1, 1),
        make_collapse(2, 1),
        make_collapse(1, 2),
        identity_rule(),
        raise_rule(),
        raise_rule(1, 2),
        random_table_rule(rand, 1, 1),
        random_table_rule(rand, 1, 2),
        build_reduction(min_ca()),
        parse_rule((data_dir / "collapse1.rule").read_text()).to_rule(),
        iterate_local_rule(make_collapse(1, 1), 2),
    ]
    for f in rules:
        seen = []
        fn = f.fn
        f.fn = lambda rng, fn=fn: seen.append(rng.entries) or fn(rng)
        if f.dim == 1:
            configs = [line_config([3, 0, 2, 2, -1, PLUS_INF, 4], -2, 0, 1), periodic_config([0, 2, 1, 1])]
        else:
            configs = [grid_config([[2, 0, 1], [1, 1, MINUS_INF]], (0, 0), 0)]
        for x in configs:
            assert step(f, x) == step(f, x)
        assert seen and len(seen) == len(set(seen)), f.name
