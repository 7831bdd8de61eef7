"""Collapse rules, the marker encoding and the spreading-CA reduction.

The reduction turns a 1-d spreading CA into a sand rule of radius
max(2s, max state): valid encodings carry the CA states on even piles with
markers between them, markers and state 0 are left alone, encoded states
follow the CA rule, and everything else collapses towards the lowest pile.
``reduction_program`` writes it as a guarded ``RuleProgram`` (what
``sandlab reduce-ca`` prints), and ``build_reduction`` is that program's
compiled form.  The commutation with the marker encoding is the
construction's correctness criterion and is pinned by tests.

``find_ultimate_period`` checks a pair (n, p) with n + p <= 2 on every
clamped neighborhood: ``oracle_step_window`` runs n steps and then p more,
and the two centers give the drift.  The neighborhood count is built only
at widths where it can fit ``SANDLAB_BUDGET``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .budget import enumeration_budget, require_budget
from .dsl import And, Atom, Or, RuleProgram
from .lattice import (
    Configuration,
    line_config,
    periodic_config,
    raise_by,
)
from .metric import distance_exponent
from .sa import FuncRule, Range, oracle_step_window, range_offsets, step


def make_collapse(r: int = 1, d: int = 1) -> FuncRule:
    """Lower any pile that can see a strictly lower one; radius-1 version
    is the classic collapsing automaton."""
    if r < 1:
        raise ValueError("radius must be >= 1")

    def fn(rng: Range) -> int:
        return -1 if any(v < 0 for v in rng.entries) else 0

    return FuncRule(d, r, fn, f"COLLAPSE({r},{d})", memoize=True)


# --- spreading CA over an integer alphabet ---------------------------------


@dataclass(frozen=True)
class LineCaConfig:
    """A 1-d CA configuration: finite core over a uniform background state."""

    origin: int
    core: tuple[int, ...]
    bg: int

    def state_at(self, i: int) -> int:
        j = i - self.origin
        if 0 <= j < len(self.core):
            return self.core[j]
        return self.bg


def line_ca(core, origin: int = 0, bg: int = 0) -> LineCaConfig:
    core = list(core)
    while core and core[0] == bg:
        core.pop(0)
        origin += 1
    while core and core[-1] == bg:
        core.pop()
    if not core:
        origin = 0
    return LineCaConfig(origin, tuple(core), bg)


class SpreadingCa:
    """A 1-d CA over a finite integer alphabet with spreading state 0."""

    def __init__(self, states, radius: int, fn, name: str = "S"):
        self.states = tuple(sorted(set(states)))
        if 0 not in self.states:
            raise ValueError("the alphabet must contain 0")
        if any(s < 0 for s in self.states):
            raise ValueError("states must be natural numbers")
        self.radius = radius
        self.fn = fn
        self.name = name
        self._validate()

    def _validate(self):
        k = 2 * self.radius + 1
        require_budget(len(self.states) ** k, "spreading validation")
        for nb in product(self.states, repeat=k):
            v = self.fn(nb)
            if v not in set(self.states):
                raise ValueError(f"rule output {v} outside the alphabet")
            if 0 in nb and v != 0:
                raise ValueError("state 0 is not spreading for this rule")

    def apply(self, neighborhood: tuple[int, ...]) -> int:
        return self.fn(tuple(neighborhood))

    def step_line(self, y: LineCaConfig) -> LineCaConfig:
        s = self.radius
        # 0 is spreading hence quiescent, so a 0 background stays put;
        # other uniform backgrounds evolve uniformly.
        new_bg = self.apply((y.bg,) * (2 * s + 1))
        if not y.core:
            return line_ca((), 0, new_bg)
        lo = y.origin - s
        hi = y.origin + len(y.core) - 1 + s
        core = [
            self.apply(tuple(y.state_at(i + o) for o in range(-s, s + 1)))
            for i in range(lo, hi + 1)
        ]
        return line_ca(core, lo, new_bg)


def constant_zero_ca(states=(0, 1), radius: int = 1) -> SpreadingCa:
    return SpreadingCa(states, radius, lambda nb: 0, name="CONST0")


def min_ca(states=(0, 1), radius: int = 1) -> SpreadingCa:
    return SpreadingCa(states, radius, lambda nb: min(nb), name="MIN")


# --- the marker encoding ---------------------------------------------------


def xi_encode(y, origin: int = 0, c: int = 0, periodic: bool = False) -> Configuration:
    """Interleave CA states with height-level markers every other pile.

    ``y`` is a state sequence (one CA cell per entry); pile 2i carries the
    state at i raised by c, odd piles carry markers at height c.
    """
    states = list(y)
    if periodic:
        cells = []
        for v in states:
            cells.extend([v + c, c])
        return periodic_config(cells)
    core = []
    for v in states:
        core.extend([v + c, c])
    if core:
        core.pop()  # markers only strictly between states
    return line_config(core, 2 * origin, c, c)


def xi_encode_line(y: LineCaConfig, c: int = 0) -> Configuration:
    if y.bg != 0:
        raise ValueError("the marker encoding needs a 0 background")
    return xi_encode(y.core, y.origin, c)


def reduction_radius(S: SpreadingCa) -> int:
    return max(2 * S.radius, max(S.states))


def reduction_program(S: SpreadingCa) -> RuleProgram:
    """The spreading-CA reduction expressed as guarded cases.

    A pile at marker level sees plain states at its odd offsets and stays.
    A pile encoding state q sits q above its markers: it sees -q at every
    odd offset and q' - q at even offsets for neighbor states q', and moves
    by S(neighborhood) - q; one case per q != 0 and neighbor combination,
    fewer than the |states|^(2s+1) that ``SpreadingCa`` validation already
    charged to the budget.  Every other range collapses.
    """
    s = S.radius
    r = reduction_radius(S)
    odd = list(range(-(2 * s - 1), 2 * s, 2))
    even = [o for o in range(-2 * s, 2 * s + 1, 2) if o != 0]
    cases = []
    marker_atoms = tuple(
        Or(tuple(Atom((o,), "==", a) for a in S.states)) for o in odd
    )
    cases.append((And(marker_atoms) if len(marker_atoms) > 1 else marker_atoms[0], 0))
    for center_state in S.states:
        if center_state == 0:
            continue
        a = -center_state
        for neigh in product(S.states, repeat=len(even)):
            atoms = [Atom((o,), "==", a) for o in odd]
            atoms += [Atom((o,), "==", st + a) for o, st in zip(even, neigh)]
            out = S.apply((*neigh[:s], center_state, *neigh[s:])) + a
            if not -r <= out <= r:
                raise ValueError("reduction output escaped the radius")
            cases.append((And(tuple(atoms)), out))
    collapse_cond = Or(tuple(Atom(o, "<", 0) for o in range_offsets(1, r)))
    cases.append((collapse_cond, -1))
    return RuleProgram(1, r, tuple(cases), 0)


def build_reduction(S: SpreadingCa) -> FuncRule:
    """The sand rule simulating a spreading CA on marker encodings."""
    return reduction_program(S).to_rule(f"REDUCTION({S.name})")


# --- flattening and ultimate periodicity -----------------------------------


@dataclass
class FlattenReport:
    outcome: str  # CONVERGED / NOT_CONVERGED / DIVERGED_WINDOW
    limit: int | None = None
    steps: int | None = None
    budget: int | None = None
    stable_radius: int | None = None
    note: str | None = None


_DIVERGE_LIMIT = 10**9


def detect_flatten(f: FuncRule, x: Configuration, budget: int) -> FlattenReport:
    """Semi-decide flattening: fixation at a constant within the budget.

    Bounded inputs only; convergence-without-fixation shows up as
    NOT_CONVERGED with the stabilized-window radius as a diagnostic.  A
    non-constant fixed point never flattens, so it ends the orbit at once
    with the report the whole budget would reach.
    """
    if not x.is_bounded():
        raise ValueError("flattening is defined on bounded configurations")
    cur = x
    prev = None
    for n in range(budget + 1):
        if cur.is_constant():
            c = cur.left
            if step(f, cur) == cur:
                return FlattenReport("CONVERGED", limit=c, steps=n)
        if any(abs(v) > _DIVERGE_LIMIT for v in cur.heights()):
            return FlattenReport(
                "DIVERGED_WINDOW", steps=n, note="heights left the tracked window"
            )
        prev = cur
        cur = step(f, cur)
        if cur == prev:  # a constant here already returned CONVERGED
            break
    # the last two configurations share every ground cylinder below radius k
    k = distance_exponent(cur, prev, cap=64)
    w = 64 if k is None else k
    return FlattenReport("NOT_CONVERGED", budget=budget, stable_radius=w - 1 if w else 0)


@dataclass
class PeriodReport:
    outcome: str  # PERIODIC / REFUTED / UNKNOWN
    preperiod: int | None = None
    period: int | None = None
    drift: int | None = None
    witness: Configuration | None = None
    a: int | None = None
    b: int | None = None
    bound: int | None = None


def drift_between(x: Configuration, y: Configuration) -> int | None:
    """The v with y = rho^v(x), or None when no vertical shift matches."""
    if x == y:
        return 0
    for vx, vy in zip(x.heights(), y.heights()):
        if isinstance(vx, int) and isinstance(vy, int):
            v = vy - vx
            return v if raise_by(x, v) == y else None
    return None


def _refutation_samples(f: FuncRule, max_sum: int, budget: int, seed: int):
    import random

    from .sampling import random_configuration

    rand = random.Random(seed)
    for h in range(1, max_sum + 3):
        yield line_config([h], 0, 0, 0)  # a single tall pile
        yield line_config((), 0, -h, h)  # a step
    yield periodic_config([0, max_sum + 2])
    for _ in range(budget):
        yield random_configuration(rand, dim=1, bounded=True)


def _refute_pair(f: FuncRule, n: int, p: int, samples) -> Configuration | None:
    for x in samples:
        cur = x
        for _ in range(n):
            cur = step(f, cur)
        xa = cur
        for _ in range(p):
            cur = step(f, cur)
        if drift_between(xa, cur) is None:
            return x
    return None


def find_ultimate_period(f: FuncRule, max_sum: int, sample_budget: int = 50, seed: int = 0) -> PeriodReport:
    """Search for F^{n+p} = rho^v . F^n.

    Pairs with n+p <= 2 are compared exhaustively over the finite set of
    clamped neighborhoods that determines every (n+p)-step center delta,
    with witnesses re-verified by direct simulation; larger pairs are only
    refuted by sampling, never confirmed.
    """
    if f.dim != 1:
        raise ValueError("period search is one-dimensional")
    r = f.radius
    pairs = sorted(
        ((n, p) for n in range(0, max_sum) for p in range(1, max_sum + 1 - n)),
        key=lambda np: (np[0] + np[1], np[0]),
    )
    refuted_witness = None
    refuted_pair = None
    limit = enumeration_budget()
    for n, p in pairs:
        m = n + p
        # exhaustive check: the center's m-step delta only sees cells within
        # m*r horizontally, and values may be clamped to +/-(R+1) because
        # deeper cells cannot influence the center within m steps
        R = (3 * m - 2) * r
        width = 2 * m * r  # cells besides the center (fixed at 0)
        # a base of at least 3 passes the budget from limit.bit_length()
        # cells on, so the count is built only below that width
        if m <= min(max_sum, 2) and width < limit.bit_length() and (2 * R + 3) ** width <= limit:
            vals = range(-(R + 1), R + 2)
            v = None
            ref_arr = None
            witness_arr = None
            for combo in product(vals, repeat=width):
                arr = combo[: width // 2] + (0,) + combo[width // 2 :]
                xa = oracle_step_window(f, arr, n)
                xb = oracle_step_window(f, xa, p)
                diff = xb[len(xb) // 2] - xa[len(xa) // 2]
                if v is None:
                    v = diff
                    ref_arr = arr
                elif diff != v:
                    witness_arr = arr
                    break
            if witness_arr is None:
                return PeriodReport("PERIODIC", preperiod=n, period=p, drift=v)
            # a single neighborhood can still shift uniformly, so replay the
            # disagreement with both neighborhoods embedded far apart
            gap = 2 * len(ref_arr) + 4
            x = line_config(list(ref_arr) + [0] * gap + list(witness_arr), -m * r, 0, 0)
            if _refute_pair(f, n, p, [x]) is None:
                raise RuntimeError("neighborhood witness did not replay")
            if refuted_witness is None:
                refuted_witness, refuted_pair = x, (n, n + p)
        else:
            samples = list(_refutation_samples(f, max_sum, sample_budget, seed))
            w = _refute_pair(f, n, p, samples)
            if w is None:
                return PeriodReport("UNKNOWN", bound=max_sum)
            if refuted_witness is None:
                refuted_witness, refuted_pair = w, (n, n + p)
    return PeriodReport(
        "REFUTED", witness=refuted_witness, a=refuted_pair[0], b=refuted_pair[1]
    )
