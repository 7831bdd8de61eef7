"""The three workloads: job generation, the timed job, and its check.

Each workload is a fixed cycle of job shapes; the seed only draws the
contents (heights, rule tables, thresholds), so every seed puts the same
kind and amount of work on each layer.  Job i is drawn from its own
generator, seeded by (workload, seed, i), so it does not depend on how
many jobs ran before it.

A workload exposes ``make(seed, i)``; the job it returns has
``run(api, ctx)`` (the timed part: calls into sandlab only) and
``check(out, ctx)`` (untimed) returning (ok, digest text).  ``api``
holds the sandlab modules, looked up at call time so that instrumented
functions are the ones called.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from time import perf_counter

import model as M


def _rand(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def _height(rand, hmax: int, p_inf: float):
    u = rand.random()
    if u < p_inf / 2:
        return M.PINF
    if u < p_inf:
        return M.NINF
    return rand.randint(-hmax, hmax)


def _line(rand, width: int, hmax: int = 4, p_inf: float = 0.0, step_bg: bool = False) -> M.Line:
    core = [_height(rand, hmax, p_inf) for _ in range(width)]
    if step_bg:
        left, right = rand.sample(range(-3, 4), 2)
    else:
        left = right = rand.randint(-2, 2)
    return M.Line(left, right, rand.randint(-4, 4) - width // 2, core)


def _small_line(rand) -> M.Line:
    """A small configuration for batch checks: one in four periodic."""
    if rand.random() < 0.25:
        return M.Line(cells=[_height(rand, 4, 0.05) for _ in range(rand.randint(2, 5))])
    core = [_height(rand, 4, 0.08) for _ in range(rand.randint(0, 6))]
    left, right = _height(rand, 4, 0.08), _height(rand, 4, 0.08)
    return M.Line(left, right, rand.randint(-3, 3), core)


def _ok_line(got, want: M.Line) -> bool:
    line = M.Line.of(got)
    return M.same_line(line, want) and M.is_canonical(line)


def _line_text(x: M.Line) -> str:
    return x.text().replace("\n", "|")


def _parse_json_height(v):
    if isinstance(v, int):
        return v
    return {"+inf": M.PINF, "-inf": M.NINF}.get(v) or int(v)


def _read_jsonl(text: str) -> list[tuple[int, M.Line]]:
    """The benchmark's own reader of sandlab trajectory records."""
    out = []
    for ln in text.splitlines():
        obj = json.loads(ln)
        if "cells" in obj:
            x = M.Line(cells=[_parse_json_height(v) for v in obj["cells"]])
        else:
            x = M.Line(
                _parse_json_height(obj["left"]),
                _parse_json_height(obj["right"]),
                obj["origin"],
                [_parse_json_height(v) for v in obj["core"]],
            )
        out.append((obj["step"], x))
    return out


# --- simulate-mix ------------------------------------------------------------

# (shape, rule, size, steps, options); ("render", back) draws the
# trajectory written ``back`` jobs earlier in the same cycle.
SIMULATE_CYCLE = [
    ("line", "collapse1", 16, 40, {}),
    ("line", "guarded1", 24, 30, {"p_inf": 0.06}),
    ("periodic", "table1", 33, 30, {}),
    ("line", "collapse2", 48, 30, {"step_bg": True}),
    ("grid", "collapse2d", 8, 8, {}),
    ("line", "guarded2", 64, 20, {"p_inf": 0.04}),
    ("line", "table1", 96, 20, {"step_bg": True}),
    ("periodic", "collapse1", 129, 20, {}),
    ("render", 7),
    ("line", "guarded1", 128, 20, {"p_inf": 0.03}),
    ("line", "collapse1", 192, 16, {"step_bg": True}),
    ("grid", "guarded2d", 14, 4, {}),
    ("periodic", "guarded2", 257, 12, {}),
    ("line", "table1", 256, 12, {"p_inf": 0.02}),
    ("line", "collapse2", 512, 10, {}),
    ("render", 10),
]


def _sim_rule(rand, name: str) -> M.Rule:
    return {
        "collapse1": lambda: M.collapse(1),
        "collapse2": lambda: M.collapse(2),
        "guarded1": lambda: M.guarded(rand, 1),
        "guarded2": lambda: M.guarded(rand, 2),
        "table1": lambda: M.dense_table(rand, 1),
        "collapse2d": lambda: M.collapse(1, 2),
        "guarded2d": lambda: M.guarded(rand, 1, 2),
    }[name]()


class Simulate:
    """``sandlab simulate``: parse a rule and a configuration, run the
    orbit, write the trajectory as JSONL."""

    def __init__(self, i, rand, keep, shape, rule_name, size, steps, opts):
        self.i, self.keep, self.shape, self.steps = i, keep, shape, steps
        self.rule = _sim_rule(rand, rule_name)
        self.rule_text = self.rule.text()
        if shape == "grid":
            self.grid = M.Grid(
                rand.randint(-1, 1),
                (rand.randint(-3, 3), rand.randint(-3, 3)),
                [[_height(rand, 4, 0.02) for _ in range(size)] for _ in range(size)],
            )
        elif shape == "periodic":
            self.line = M.Line(cells=[_height(rand, 4, 0.02) for _ in range(size)])
        else:
            self.line = _line(rand, size, **opts)
        if shape != "grid":
            self.cfg_text = self.line.text()

    def run(self, api, ctx):
        f = api.dsl.parse_rule(self.rule_text).to_rule()
        if self.shape == "grid":
            g = self.grid
            recs = api.sa.orbit(f, api.lattice.grid_config(g.rows, g.origin, g.bg), self.steps)
            return recs, None
        x = api.files.parse_config(self.cfg_text)
        recs = api.sa.orbit(f, x, self.steps)
        text = "".join(api.files.trajectory_record(r) + "\n" for r in recs)
        if self.keep:
            ctx.trajectories[self.i] = text
        return recs, text

    def check(self, out, ctx):
        recs, text = out
        if [r.step for r in recs] != list(range(self.steps + 1)):
            return False, "orbit steps"
        if self.shape == "grid":
            prev = self.grid
            lines = []
            for t, rec in enumerate(recs):
                got = M.Grid.of(rec.config)
                want = prev if t == 0 else M.step_grid(self.rule, prev)
                if not (M.same_grid(got, want) and M.grid_is_canonical(got)):
                    return False, f"2-d step {t} disagrees with the brute-force step"
                prev = got
                lines.append(f"{t} {got.bg} {got.origin} {[[M.fmt_height(v) for v in r] for r in got.rows]}")
            return True, "\n".join(lines)
        prev = self.line
        for t, rec in enumerate(recs):
            want = prev if t == 0 else M.step_line(self.rule, prev)
            if not _ok_line(rec.config, want):
                return False, f"step {t} disagrees with the brute-force step"
            prev = M.Line.of(rec.config)
        back = _read_jsonl(text)
        if len(back) != len(recs) or not all(
            n == r.step and M.same_line(x, M.Line.of(r.config)) for (n, x), r in zip(back, recs)
        ):
            return False, "JSONL round trip does not reproduce the orbit"
        return True, text


class Render:
    """``sandlab render``: read back a stored trajectory, draw ascii and SVG."""

    def __init__(self, i, back):
        self.i, self.src = i, i - back

    def run(self, api, ctx):
        text = ctx.trajectories.pop(self.src)
        recs = api.files.read_trajectory(text)
        return text, api.render.render_ascii(recs), api.render.render_svg(recs)

    def check(self, out, ctx):
        text, ascii_text, svg = out
        records = _read_jsonl(text)
        if ascii_text != M.ascii_frames(records):
            return False, "ascii frames differ from the documented figure"
        if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
            return False, "SVG is not one svg element"
        if svg.count(">step ") != len(records):
            return False, "SVG frame count"
        return True, ascii_text + svg


_RENDERED = {k - spec[1] for k, spec in enumerate(SIMULATE_CYCLE) if spec[0] == "render"}


def simulate_mix(seed: int, i: int):
    k = i % len(SIMULATE_CYCLE)
    spec = SIMULATE_CYCLE[k]
    if spec[0] == "render":
        return Render(i, spec[1])
    return Simulate(i, _rand("simulate-mix", seed, i), k in _RENDERED, *spec)


# --- bridge-check ----------------------------------------------------------------

# ("sa", rule, batch, decide) or ("table", "random" | "corrupt")
BRIDGE_CYCLE = [
    ("sa", "r1", 6, True),
    ("sa", "guarded2", 4, False),
    ("table", "random"),
    ("sa", "collapse2", 4, False),
    ("sa", "guarded2", 4, False),
    ("table", "corrupt"),
    ("sa", "guarded2", 4, False),
    ("sa", "collapse2", 4, False),
]


def _r1_rule(rand, i: int) -> M.Rule:
    kind = (i // len(BRIDGE_CYCLE)) % 3
    if kind == 0:
        return M.collapse(1)
    if kind == 1:
        return M.guarded(rand, 1)
    return M.dense_table(rand, 1)


class BridgeSa:
    """``sandlab sa2ca`` + conjugacy, and for radius 1 ``check-sa --extract``."""

    def __init__(self, i, rand, rule_name, batch, decide):
        if rule_name == "r1":
            self.rule = _r1_rule(rand, i)
        else:
            self.rule = _sim_rule(rand, rule_name)
        self.rule_text = self.rule.text()
        self.configs = [_small_line(rand).text() for _ in range(batch)]
        self.decide = decide
        # one shape for every sample, so that the costly extracted-rule
        # steps do the same work whatever the seed
        self.samples = [
            M.Line(rand.randint(-2, 2), rand.randint(-2, 2), rand.randint(-3, 0),
                   [_height(rand, 3, 0.1) for _ in range(4)])
            for _ in range(6 if decide else 0)
        ]
        self.sample_texts = [x.text() for x in self.samples]

    def run(self, api, ctx):
        f = api.dsl.parse_rule(self.rule_text).to_rule()
        g = api.bridge.build_ca_from_sa(f)
        conj = [
            api.bridge.check_conjugacy_on(f, g, api.files.parse_config(c), 3) for c in self.configs
        ]
        if not self.decide:
            return conj, None, []
        t0 = perf_counter()
        rep = api.bridge.decide_sa(g, extract=True)
        ctx.decider_s += perf_counter() - t0
        stepped = [api.sa.step(rep.extracted, api.files.parse_config(t)) for t in self.sample_texts]
        return conj, rep, stepped

    def check(self, out, ctx):
        conj, rep, stepped = out
        if any(w is not None for w in conj):
            return False, f"conjugacy mismatch {next(w for w in conj if w is not None)!r}"
        lines = [f"conjugacy ok x{len(conj)}"]
        if self.decide:
            if rep.verdict != "IS_SA" or rep.extracted is None:
                return False, f"bridge CA judged {rep.verdict}"
            ctx.decider_windows += M.decider_windows("IS_SA", None, None, 2 * self.rule.radius)
            for x, y in zip(self.samples, stepped):
                if not _ok_line(y, M.step_line(self.rule, x)):
                    return False, "extracted rule disagrees with the source rule"
                lines.append(_line_text(M.Line.of(y)))
            lines.append("IS_SA")
        return True, "\n".join(lines)


def _random_table(rand):
    while True:
        table = [rand.randint(0, 1) for _ in range(512)]
        if M.first_violation(table) is not None:
            return table


def _corrupt_table(rand):
    """An SA-representing radius-1 CA with 1-3 hole-free windows flipped."""
    base = M.sa_shift_table(rand.choice(("identity", "raise", "lower")))
    hole_free = [M.nb_index(cols) for cols in product((0, 1, 3, 7), repeat=3)]
    while True:
        table = list(base)
        for idx in rand.sample(hole_free, rand.randint(1, 3)):
            table[idx] ^= 1
        if M.first_violation(table) is not None:
            return table


class BridgeTable:
    """``sandlab check-sa`` on a binary CA given as a dense table."""

    def __init__(self, rand, kind):
        self.table = _random_table(rand) if kind == "random" else _corrupt_table(rand)
        self.text = M.ca_table_text(self.table)
        self.expected = M.first_violation(self.table)

    def run(self, api, ctx):
        g = api.files.parse_ca(self.text)
        t0 = perf_counter()
        rep = api.bridge.decide_sa(g)
        ctx.decider_s += perf_counter() - t0
        return g, rep

    def check(self, out, ctx):
        g, rep = out
        if rep.verdict != "NOT_SA":
            return False, f"corrupted CA judged {rep.verdict}"
        got = (rep.failed_check, tuple(rep.witness.tops))
        if got != self.expected:
            return False, f"witness {got} is not the first violation {self.expected}"
        import sandlab.bridge as B

        replay = (
            B.invariance_violation(g, rep.witness)
            if rep.failed_check == "INVARIANCE"
            else B.column_preservation_violation(g, rep.witness)
        )
        if not replay:
            return False, "witness does not replay"
        ctx.decider_windows += M.decider_windows("NOT_SA", got[0], got[1], 1)
        return True, f"NOT_SA {got[0]} {got[1]}"


def bridge_check(seed: int, i: int):
    spec = BRIDGE_CYCLE[i % len(BRIDGE_CYCLE)]
    rand = _rand("bridge-check", seed, i)
    if spec[0] == "table":
        return BridgeTable(rand, spec[1])
    return BridgeSa(i, rand, *spec[1:])


# --- nilpotency-lab ---------------------------------------------------------------

# ("flatten", r, width, height), ("reduction", states), ("period",),
# ("nonexp", collapse radius)
# Two radius-1 non-expansivity jobs sit in the middle of the latency
# order, so the median job latency falls inside one job kind rather than
# on the gap between two.
NILPOTENCY_CYCLE = [
    ("nonexp", 1),
    ("reduction", 4),
    ("nonexp", 1),
    ("flatten", 2, 64, 24),
    ("period",),
    ("reduction", 5),
    ("flatten", 1, 128, 32),
    ("nonexp", 2),
]


def _terrain(rand, width: int, height: int) -> M.Line:
    """A mesa: terraced flanks around one flat top.  Collapse erodes the
    top from its edges inward, about width / (2r) + height steps."""
    base = rand.randint(-4, 4)
    flank = width // 8

    def slope():
        hs = sorted(rand.randint(1, height - 1) for _ in range(rand.randint(2, flank)))
        return [base + h for h in hs]

    left, right = slope(), slope()[::-1]
    core = left + [base + height] * (width - len(left) - len(right)) + right
    return M.Line(base, base, rand.randint(-4, 4) - width // 2, core)


class Flatten:
    """``sandlab flatten`` of collapse on a bounded terrain."""

    def __init__(self, rand, r, width, height):
        self.r = r
        self.line = _terrain(rand, width, height)
        self.text = self.line.text()
        self.budget = 10 * width * (height + 1)

    def run(self, api, ctx):
        f = api.nilpotency.make_collapse(self.r)
        return api.nilpotency.detect_flatten(f, api.files.parse_config(self.text), self.budget)

    def check(self, rep, ctx):
        low = min(self.line.core + (self.line.left,))
        if rep.outcome != "CONVERGED" or rep.limit != low:
            return False, f"collapse ended {rep.outcome} at {rep.limit}, not at the minimum {low}"
        return True, f"CONVERGED {rep.limit} {rep.steps}"


def _spreading_table(rand, states: int) -> list[int]:
    """A radius-1 CA table over ``states`` states in which 0 spreads."""
    table = []
    for idx in range(states**3):
        nb = (idx % states, idx // states % states, idx // states**2)
        if 0 in nb:
            table.append(0)
        else:
            table.append(rand.randint(1, states - 1) if rand.random() < 0.85 else 0)
    return table


def _encode(states, origin: int) -> M.Line:
    """The marker encoding: states on even piles, markers at 0 between."""
    core = []
    for v in states:
        core.extend([v, 0])
    return M.Line(0, 0, 2 * origin, core[:-1])


class Reduction:
    """``sandlab reduce-ca``, then commutation with the encoding and the
    flattening of a perturbed encoding."""

    STEPS = 5

    def __init__(self, rand, states):
        self.states = states
        self.table = _spreading_table(rand, states)
        self.text = (
            f"carule v1\ndim 1\nradius 1\nstates {states}\ntable {''.join(map(str, self.table))}\n"
        )
        self.core = [rand.randint(1, states - 1) for _ in range(rand.randint(3, 8))]
        self.origin = rand.randint(-3, 3)
        enc = _encode(self.core, self.origin)
        core = list(enc.core)
        k = rand.randrange(len(core))
        # a bump: a pit below the markers would erode the infinite
        # background forever, so the orbit could not flatten
        core[k] += rand.choice((1, 2))
        self.perturbed = M.Line(0, 0, enc.origin, core)
        self.perturbed_text = self.perturbed.text()

    def run(self, api, ctx):
        nil = api.nilpotency
        g = api.files.parse_ca(self.text)
        S = nil.SpreadingCa(range(g.states), g.radius, g.apply_flat, name="S")
        F = nil.build_reduction(S)
        y = nil.line_ca(self.core, self.origin, 0)
        fx = nil.xi_encode_line(y)
        ys, fxs = [y], [fx]
        for _ in range(self.STEPS):
            y = S.step_line(y)
            fx = api.sa.step(F, fx)
            ys.append(y)
            fxs.append(fx)
        rep = nil.detect_flatten(F, api.files.parse_config(self.perturbed_text), 600)
        return F.radius, ys, fxs, rep

    def check(self, out, ctx):
        radius, ys, fxs, rep = out
        if radius != max(2, self.states - 1):
            return False, f"reduction radius {radius}"
        n = self.states
        origin, core = self.origin, list(self.core)
        lines = []
        for t, (y, fx) in enumerate(zip(ys, fxs)):
            if t:
                lo, hi = origin - 1, origin + len(core)
                cells = []
                for i in range(lo, hi + 1):
                    a, b, c = (core[j - origin] if 0 <= j - origin < len(core) else 0 for j in (i - 1, i, i + 1))
                    cells.append(self.table[a + n * b + n * n * c])
                while cells and cells[0] == 0:
                    cells.pop(0)
                    lo += 1
                while cells and cells[-1] == 0:
                    cells.pop()
                origin, core = (lo, cells) if cells else (0, [])
            if (y.bg, y.origin, list(y.core)) != (0, origin, core):
                return False, f"CA step {t} disagrees with the table"
            if not _ok_line(fx, _encode(core, origin) if core else M.Line()):
                return False, f"reduction step {t} does not commute with the encoding"
            lines.append(_line_text(M.Line.of(fx)))
        if rep.outcome != "CONVERGED":
            return False, f"perturbed encoding ended {rep.outcome}"
        lines.append(f"CONVERGED {rep.limit} {rep.steps}")
        return True, "\n".join(lines)


def _shifted(x: M.Line, y: M.Line):
    """The v with y = x raised by v, or None."""
    if (x.cells is None) != (y.cells is None):
        return None
    if x.cells is not None:
        idx = range(len(x.cells) * len(y.cells))
        bgs = []
    else:
        lo = min(x.span()[0], y.span()[0]) - 1
        hi = max(x.span()[1], y.span()[1]) + 1
        idx = range(lo, hi + 1)
        bgs = [(x.left, y.left), (x.right, y.right)]
    pairs = [(x.at(i), y.at(i)) for i in idx] + bgs
    finite = {b - a for a, b in pairs if a not in (M.PINF, M.NINF) and b not in (M.PINF, M.NINF)}
    if len(finite) > 1 or any(
        (a in (M.PINF, M.NINF) or b in (M.PINF, M.NINF)) and a != b for a, b in pairs
    ):
        return None
    return finite.pop() if finite else 0


def _run_steps(rule: M.Rule, x: M.Line, n: int) -> M.Line:
    for _ in range(n):
        x = M.step_line(rule, x)
    return x


class Period:
    """``sandlab period-search`` on identity, raise, collapse or a table."""

    def __init__(self, rand, i):
        self.kind = ("identity", "raise", "collapse", "table")[(i // len(NILPOTENCY_CYCLE)) % 4]
        if self.kind == "identity":
            self.rule = M.identity()
        elif self.kind == "raise":
            self.rule = M.raising()
        elif self.kind == "collapse":
            self.rule = M.collapse(1)
        else:
            self.rule = M.dense_table(rand, 1)
        self.rule_text = self.rule.text()
        self.samples = [
            M.Line(0, 0, rand.randint(-3, 3), [rand.randint(-4, 4) for _ in range(rand.randint(1, 6))])
            for _ in range(4)
        ]

    def run(self, api, ctx):
        if self.kind == "identity":
            f = api.sa.identity_rule()
        elif self.kind == "raise":
            f = api.sa.raise_rule()
        elif self.kind == "collapse":
            f = api.nilpotency.make_collapse(1)
        else:
            f = api.dsl.parse_rule(self.rule_text).to_rule()
        return api.nilpotency.find_ultimate_period(f, 3)

    def check(self, rep, ctx):
        summary = f"{rep.outcome} {rep.preperiod} {rep.period} {rep.drift} {rep.a} {rep.b}"
        if self.kind in ("identity", "raise"):
            want = ("PERIODIC", 0, 1, 0 if self.kind == "identity" else 1)
            if (rep.outcome, rep.preperiod, rep.period, rep.drift) != want:
                return False, f"{self.kind}: {summary}"
            return True, summary
        if self.kind == "collapse" and rep.outcome != "REFUTED":
            return False, f"collapse: {summary}"
        if rep.outcome == "REFUTED":
            xa = _run_steps(self.rule, M.Line.of(rep.witness), rep.a)
            xb = _run_steps(self.rule, xa, rep.b - rep.a)
            if _shifted(xa, xb) is not None:
                return False, "refutation witness does not replay"
            return True, summary + " " + _line_text(M.Line.of(rep.witness))
        if rep.outcome == "PERIODIC":
            for x in self.samples:
                xn = _run_steps(self.rule, x, rep.preperiod)
                if _shifted(xn, _run_steps(self.rule, xn, rep.period)) != rep.drift:
                    return False, "claimed period fails on a sample"
        return True, summary


class NonExpansive:
    """Pairs agreeing on [-k, k] (a wall of infinite piles) stay within
    2^-k of each other under 100 steps and ``dist_ground``."""

    STEPS = 100

    def __init__(self, rand, i, r):
        self.k = (i // len(NILPOTENCY_CYCLE)) % 9
        self.r = r
        k = self.k
        wall = [M.PINF] * (2 * k + 1)
        # piles no lower than a single background: a pit below it, or a
        # step background, would erode without end under collapse and
        # swamp the distance computations
        bx, by = rand.randint(-2, 2), rand.randint(-2, 2)

        def piles(bg):
            return [bg + rand.randint(0, 6) for _ in range(rand.randint(1, 6))]

        self.x = M.Line(bx, bx, -k, wall + piles(bx)).text()
        head = piles(by)
        self.y = M.Line(by, by, -k - len(head), head + wall + piles(by)).text()

    def run(self, api, ctx):
        f = api.nilpotency.make_collapse(self.r)
        cx, cy = api.files.parse_config(self.x), api.files.parse_config(self.y)
        dists = []
        for _ in range(self.STEPS):
            cx, cy = api.sa.step(f, cx), api.sa.step(f, cy)
            dists.append(api.metric.dist_ground(cx, cy))
        return dists

    def check(self, dists, ctx):
        bound = Fraction(1, 2**self.k)
        if any(d >= bound for d in dists):
            return False, f"pair left the 2^-{self.k} ball"
        return True, " ".join(str(d) for d in dists)


def nilpotency_lab(seed: int, i: int):
    spec = NILPOTENCY_CYCLE[i % len(NILPOTENCY_CYCLE)]
    rand = _rand("nilpotency-lab", seed, i)
    if spec[0] == "flatten":
        return Flatten(rand, *spec[1:])
    if spec[0] == "reduction":
        return Reduction(rand, spec[1])
    if spec[0] == "period":
        return Period(rand, i)
    return NonExpansive(rand, i, spec[1])


WORKLOADS = {
    "simulate-mix": simulate_mix,
    "bridge-check": bridge_check,
    "nilpotency-lab": nilpotency_lab,
}


class Context:
    """State a pass carries across jobs: stored trajectories for render jobs
    and the decider's work, which the checks count outside the timed part."""

    def __init__(self):
        self.trajectories: dict[int, str] = {}
        self.decider_s = 0.0
        self.decider_windows = 0
