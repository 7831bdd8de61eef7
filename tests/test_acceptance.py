"""The acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints its verdict directly to the terminal (bypassing capture)
and enforces both the exact expected values and the wall-clock budget.
"""

import random
import time
from fractions import Fraction

from sandlab.bridge import (
    build_ca_from_sa,
    check_invariance,
    check_column_preservation,
    column_preservation_violation,
    decide_sa,
    invariance_violation,
)
from sandlab.ca import CaRule, table_rule
from sandlab.dsl import RuleParseError, parse_rule, serialize_rule
from sandlab.files import parse_config, serialize_config
from sandlab.heights import PLUS_INF
from sandlab.lattice import constant, height_at, line_config
from sandlab.metric import dist_ground, ground_cylinder, top_cylinder
from sandlab.nilpotency import (
    build_reduction,
    constant_zero_ca,
    detect_flatten,
    drift_between,
    find_ultimate_period,
    line_ca,
    make_collapse,
    min_ca,
    xi_encode,
    xi_encode_line,
)
from sandlab.sa import (
    identity_rule,
    iterate_local_rule,
    oracle_step_window,
    raise_rule,
    step,
)
from sandlab.sampling import random_configuration

from samplers import conjugacy_witness, random_bounded_line, sample_table_rules


def report(capsys, n, label, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {n}: {label} ({elapsed:.3f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_figure_cylinders(capsys):
    x = line_config([5, -2, 1, 4, 2, 2, 5], -3)
    t0 = time.perf_counter()
    top = top_cylinder(x, 0, 3).entries
    ground = ground_cylinder(x, 0, 3).entries
    elapsed = time.perf_counter() - t0
    ok = top == (1, -PLUS_INF, -3, 4, -2, -2, 1) and ground == (
        PLUS_INF, -2, 1, PLUS_INF, 2, 2, PLUS_INF,
    )
    report(capsys, 1, "figure cylinders reproduced exactly", ok, elapsed, 0.001)


def test_criterion_2_perfectness_distances(capsys):
    x = constant(0)
    t0 = time.perf_counter()
    ok = True
    for n in range(13):
        y = line_config([PLUS_INF], n, 0, 0)
        ok = ok and dist_ground(x, y) == Fraction(1, 2**n)
    elapsed = time.perf_counter() - t0
    report(capsys, 2, "one-site flips at |l|=n sit at distance 2^-n for n<=12", ok, elapsed, 0.010)


def test_criterion_3_conjugacy(capsys):
    rules = [
        make_collapse(1, 1),
        make_collapse(2, 1),
        raise_rule(),
        identity_rule(),
    ] + sample_table_rules(20, radius=1, seed=7)
    t0 = time.perf_counter()
    ok = True
    for f in rules:
        if conjugacy_witness(f, samples=200, n_steps=3, seed=11) is not None:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(capsys, 3, "encode-then-CA equals step-then-encode on 24 rules x 200 configs", ok, elapsed, 10)


def _corrupt_all_ones(g: CaRule) -> CaRule:
    full = (1,) * g.cells

    def fn(flat):
        return 0 if flat == full else g.apply_flat(flat)

    return CaRule(g.dim, g.radius, g.states, fn, name=f"CORRUPT({g.name})")


def test_criterion_4_decider(capsys):
    t0 = time.perf_counter()
    g = build_ca_from_sa(make_collapse(1, 1))
    rho = g.radius
    n_invariance = (2 * rho + 3) ** (2 * rho + 1)  # hole-free windows scanned
    ok = n_invariance == 16807
    rep = decide_sa(g)
    ok = ok and rep.verdict == "IS_SA"
    ok = ok and check_invariance(g) is None and check_column_preservation(g) is None

    const1 = table_rule(2, 1, 2, [1] * 512, name="CONST1")
    rep1 = decide_sa(const1)
    ok = ok and rep1.verdict == "NOT_SA"
    if rep1.verdict == "NOT_SA":
        replay = (
            invariance_violation(const1, rep1.witness)
            if rep1.failed_check == "INVARIANCE"
            else column_preservation_violation(const1, rep1.witness)
        )
        ok = ok and replay

    bad = _corrupt_all_ones(g)
    rep2 = decide_sa(bad)
    ok = ok and rep2.verdict == "NOT_SA"
    if rep2.verdict == "NOT_SA":
        replay = (
            invariance_violation(bad, rep2.witness)
            if rep2.failed_check == "INVARIANCE"
            else column_preservation_violation(bad, rep2.witness)
        )
        ok = ok and replay
    elapsed = time.perf_counter() - t0
    report(capsys, 4, "decider: bridge IS_SA over 16807 windows; two NOT_SA with replaying witnesses", ok, elapsed, 30)


def test_criterion_5_collapse_nilpotency(capsys):
    f = make_collapse(1, 1)
    rand = random.Random(42)
    t0 = time.perf_counter()
    ok = True
    for _ in range(100):
        x = random_bounded_line(rand, max_width=16, hmax=8)
        hs = x.heights()
        width = max(len(x.core), 1)
        bound = 10 * width * (max(hs) - min(hs) + 1)
        rep = detect_flatten(f, x, max(bound, 1))
        ok = ok and rep.outcome == "CONVERGED" and rep.limit == min(hs) and rep.steps <= bound
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(capsys, 5, "collapse flattens 100 bounded configs to the minimum within 10*w*h steps", ok, elapsed, 5)


def test_criterion_6_reduction_fidelity(capsys):
    t0 = time.perf_counter()
    ok = True
    S0 = constant_zero_ca()
    F0 = build_reduction(S0)
    rand = random.Random(5)
    for _ in range(50):
        states = [rand.choice(S0.states) for _ in range(rand.randint(1, 8))]
        rep = detect_flatten(F0, xi_encode(states, rand.randint(-3, 3)), 10**4)
        ok = ok and rep.outcome == "CONVERGED"
    for _ in range(50):
        rep = detect_flatten(F0, random_bounded_line(rand, max_width=10, hmax=5), 10**4)
        ok = ok and rep.outcome == "CONVERGED"

    Sm = min_ca()
    Fm = build_reduction(Sm)
    fixed = xi_encode([1], periodic=True)
    cur = fixed
    for _ in range(10**3):
        cur = step(Fm, cur)
        if cur != fixed:
            ok = False
            break

    for t in range(100):
        S, F = (S0, F0) if t % 2 else (Sm, Fm)
        y = line_ca(
            [rand.choice(S.states) for _ in range(rand.randint(1, 6))],
            rand.randint(-3, 3),
            0,
        )
        fx = xi_encode_line(y)
        for _ in range(5):
            y = S.step_line(y)
            fx = step(F, fx)
            if fx != xi_encode_line(y):
                ok = False
                break
    elapsed = time.perf_counter() - t0
    report(capsys, 6, "reduction flattens 100 configs, fixes the all-1 encoding, commutes on 100x5", ok, elapsed, 60)


def test_criterion_7_oracle_equivalence(capsys):
    rules = sample_table_rules(10, seed=3) + [make_collapse(1, 1), raise_rule()]
    rand = random.Random(9)
    t0 = time.perf_counter()
    ok = True
    for _ in range(500):
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
        if got != tuple(height_at(cur, i) for i in range(lo, hi + 1)):
            ok = False
            break
    iterated = {f.name: iterate_local_rule(f, 2) for f in rules}
    for t in range(200):
        f = rules[t % len(rules)]
        x = random_configuration(rand, dim=1)
        if step(iterated[f.name], x) != step(f, step(f, x)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(capsys, 7, "symbolic step matches the window oracle (500) and 2-step iteration (200)", ok, elapsed, 30)


def test_criterion_8_period_search(capsys):
    t0 = time.perf_counter()
    rid = find_ultimate_period(identity_rule(), 3)
    rra = find_ultimate_period(raise_rule(), 3)
    rN = find_ultimate_period(make_collapse(1, 1), 3)
    ok = (
        (rid.outcome, rid.preperiod, rid.period, rid.drift) == ("PERIODIC", 0, 1, 0)
        and (rra.outcome, rra.preperiod, rra.period, rra.drift) == ("PERIODIC", 0, 1, 1)
        and rN.outcome == "REFUTED"
        and rN.witness is not None
    )
    if ok:
        # the refutation witness replays under direct simulation
        f = make_collapse(1, 1)
        cur = rN.witness
        for _ in range(rN.a):
            cur = step(f, cur)
        xa = cur
        for _ in range(rN.b - rN.a):
            cur = step(f, cur)
        ok = drift_between(xa, cur) is None
    elapsed = time.perf_counter() - t0
    report(capsys, 8, "IDENTITY/RAISE periodic with drifts 0/1; collapse refuted with a witness", ok, elapsed, 60)


def test_criterion_9_non_expansivity(capsys):
    rules = [make_collapse(1, 1)] + sample_table_rules(2, seed=21)
    t0 = time.perf_counter()
    ok = True
    for k in range(9):
        x = line_config([PLUS_INF] * (2 * k + 1) + [3], -k, 0, 0)
        y = line_config([7] + [PLUS_INF] * (2 * k + 1) + [-2], -k - 1, 1, -1)
        for f in rules:
            cx, cy = x, y
            for _ in range(100):
                cx, cy = step(f, cx), step(f, cy)
                if dist_ground(cx, cy) >= Fraction(1, 2**k):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(capsys, 9, "orbits of pairs agreeing on [-k,k] stay closer than 2^-k for 100 steps", ok, elapsed, 10)


def test_criterion_10_parser_and_formats(capsys, data_dir):
    t0 = time.perf_counter()
    ok = True
    rule_files = sorted(p for p in data_dir.iterdir() if p.suffix == ".rule")
    cfg_files = sorted(p for p in data_dir.iterdir() if p.suffix == ".cfg")
    ok = ok and len(rule_files) >= 10 and len(cfg_files) >= 10
    for path in rule_files:
        text = path.read_text()
        ok = ok and serialize_rule(parse_rule(text)) == text
    for path in cfg_files:
        text = path.read_text()
        ok = ok and serialize_config(parse_config(text)) == text

    rand = random.Random(1234)
    for _ in range(10**5):
        n = rand.randint(0, 40)
        text = "".join(chr(rand.randint(1, 255)) for _ in range(n))
        try:
            parse_rule(text)
        except RuleParseError:
            pass
        except Exception:
            ok = False
            break

    # error positions are stable across parses
    bad = "sarule v1\ndim 1\nradius 1\ncase R[1] < => -1\ndefault => 0\n"
    positions = set()
    for _ in range(3):
        try:
            parse_rule(bad)
        except RuleParseError as e:
            positions.add((e.line, e.col))
    ok = ok and positions == {(4, 11)}
    elapsed = time.perf_counter() - t0
    report(capsys, 10, "golden corpus round-trips byte-identically; 10^5 fuzz inputs; stable positions", ok, elapsed, 30)
