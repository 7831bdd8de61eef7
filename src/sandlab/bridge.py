"""The SA-to-CA construction on the hole-free subshift, and the decider.

A 1-d sand automaton of radius r induces a 2-d binary CA of radius 2r:
on a hole-free window the rule locates the top of the central column,
reads the sand range around it, and refills the column up to the moved
top.  Conversely, a 2-d binary CA represents a sand automaton exactly
when it maps hole-free windows to hole-free cells (invariance) and
preserves uniform columns (the infinite piles); both checks are finite
and exhaustive, which is what makes the question decidable.  The bridge
composes ``metric``'s comparator, encoder and decoder with ``ca``'s rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .budget import require_budget
from .ca import CaRule, extend_columns
from .heights import is_finite
from .lattice import Configuration, line_config
from .metric import (
    UNDETERMINED,
    StaircasePattern,
    beta,
    column_is_monotone,
    zeta_decode_column,
    zeta_window,
)
from .sa import (
    FuncRule,
    Range,
    SaRule,
    apply_local,
    realize_range,
    step,
)


def _column_masks(st: StaircasePattern) -> list[int]:
    return [(1 << t) - 1 for t in st.tops]


def build_ca_from_sa(f: SaRule) -> CaRule:
    """The radius-2r binary CA conjugate to a 1-d SA via the encoding."""
    if f.dim != 1:
        raise ValueError("the bridge construction is for 1-d rules")
    r = f.radius
    side = 4 * r + 1
    center = 2 * r  # 0-based column/row of the window center

    def g(flat: tuple) -> int:
        cols = [flat[c * side : (c + 1) * side] for c in range(side)]
        central = cols[center]
        if any(not column_is_monotone(col) for col in cols):
            return central[center]
        t = sum(central)  # 1-based row of the central column's top (0 if empty)
        if not r + 1 <= t <= 3 * r:
            return central[center]
        entries = [beta(r, t, sum(cols[center + o])) for o in range(-r, r + 1) if o]
        delta = apply_local(f, Range(1, r, tuple(entries)))
        j_rel = t - (2 * r + 1)
        return 1 if j_rel + delta >= 0 else 0

    return CaRule(2, 2 * r, 2, g, name=f"BRIDGE({f.name})")


@dataclass
class ConjugacyReport:
    ok: bool
    checked: int
    witness: object = None  # (config, n, column index, expected tops, got tops)


def _encode_grid(x: Configuration, horiz, vert) -> list[int]:
    return _column_masks(zeta_window(x, horiz, vert))


def check_conjugacy(
    f: SaRule,
    samples: int,
    n_steps: int,
    seed: int = 0,
    g: CaRule | None = None,
) -> ConjugacyReport:
    """Cell-exact comparison of encode-then-CA against SA-then-encode."""
    import random

    from .sampling import random_configuration

    if g is None:
        g = build_ca_from_sa(f)
    rand = random.Random(seed)
    for t in range(samples):
        x = random_configuration(rand, dim=1)
        w = check_conjugacy_on(f, g, x, n_steps)
        if w is not None:
            return ConjugacyReport(False, t, w)
    return ConjugacyReport(True, samples)


def check_conjugacy_on(f: SaRule, g: CaRule, x: Configuration, n_steps: int):
    """Returns None on agreement, else a mismatch witness."""
    rho = g.radius
    r = f.radius
    cur = x
    orbit = [x]
    for _ in range(n_steps):
        cur = step(f, cur)
        orbit.append(cur)
    W = x.extent() + n_steps * r + 2
    finite = [v for c in orbit for v in c.heights() if is_finite(v)]
    if finite:
        vlo, vhi = min(finite) - 2, max(finite) + 2
    else:
        vlo, vhi = -2, 2
    horiz = (-W - rho * n_steps, W + rho * n_steps)
    vert = (vlo - rho * n_steps, vhi + rho * n_steps)
    cols = _encode_grid(x, horiz, vert)
    height = vert[1] - vert[0] + 1
    for n in range(1, n_steps + 1):
        cols, height = extend_columns(g, cols, height)
        expected = _encode_grid(
            orbit[n], (-W, W), (vlo - rho * (n_steps - n), vhi + rho * (n_steps - n))
        )
        # compare on the common central region
        off = (len(cols) - (2 * W + 1)) // 2
        got = cols[off : off + 2 * W + 1]
        if got != expected:
            for c, (a, b) in enumerate(zip(got, expected)):
                if a != b:
                    return (x, n, c - W, b, a)
    return None


@dataclass
class DecisionReport:
    verdict: str  # "IS_SA" or "NOT_SA"
    failed_check: str | None = None  # "INVARIANCE" or "COLUMN_PRESERVATION"
    witness: StaircasePattern | None = None
    extracted: SaRule | None = None


def invariance_violation(g: CaRule, st: StaircasePattern) -> bool:
    """Replay one invariance window: does its image contain the hole?"""
    rho = g.radius
    span = 2 * rho + 1
    mask = (1 << span) - 1
    cols = _column_masks(st)
    below = g.apply_masks(tuple(c & mask for c in cols))
    above = g.apply_masks(tuple((c >> 1) & mask for c in cols))
    return below == 0 and above == 1


def check_invariance(g: CaRule):
    """Exhaustively verify hole-freeness is preserved; None or first witness.

    Scans every hole-free window of width 2rho+1 and height 2rho+2, whose
    image is a single vertical pair; that pair must not be 0-below-1.
    """
    rho = g.radius
    span = 2 * rho + 1
    h = span + 1
    require_budget((h + 1) ** span, "invariance check")
    for tops in product(range(h + 1), repeat=span):
        st = StaircasePattern(span, h, tops)
        if invariance_violation(g, st):
            return st
    return None


def column_preservation_violation(g: CaRule, st: StaircasePattern) -> bool:
    rho = g.radius
    span = 2 * rho + 1
    cols = _column_masks(st)
    full = (1 << span) - 1
    out = g.apply_masks(tuple(cols))
    if cols[rho] == full:
        return out != 1
    if cols[rho] == 0:
        return out != 0
    return False


def check_column_preservation(g: CaRule):
    """Uniform central columns must map to their own value; None or witness."""
    rho = g.radius
    span = 2 * rho + 1
    require_budget(2 * (span + 1) ** (span - 1), "column preservation check")
    for central_top in (span, 0):
        for rest in product(range(span + 1), repeat=span - 1):
            tops = rest[:rho] + (central_top,) + rest[rho:]
            st = StaircasePattern(span, span, tops)
            if column_preservation_violation(g, st):
                return st
    return None


def extract_sa_rule(g: CaRule) -> SaRule:
    """Read the sand rule off a CA that passed both checks.

    The extracted radius is 2rho: neighbor tops up to 2rho away in value
    still influence the cells within rho of the central top.
    """
    rho = g.radius
    r_ext = 2 * rho
    span = 2 * rho + 1

    def fn(rng: Range) -> int:
        x = line_config(realize_range(rng), -r_ext)  # center pile at 0, height 0
        cols = _encode_grid(x, (-rho, rho), (-span, span))
        out, out_h = extend_columns(g, cols, 2 * span + 1)
        column = ((out[0] >> v) & 1 for v in range(out_h))
        delta = zeta_decode_column(column, -rho - 1, rho + 1)
        if delta is UNDETERMINED:
            raise ValueError("CA moved the pile top out of view; not a sand automaton")
        if not -r_ext <= delta <= r_ext:
            raise ValueError("extracted variation outside [-r, r]")
        return delta

    return FuncRule(1, r_ext, fn, f"EXTRACTED({g.name})", memoize=True)


def decide_sa(g: CaRule, extract: bool = False) -> DecisionReport:
    """Decide whether a 2-d binary CA represents a 1-d sand automaton."""
    if g.dim != 2 or g.states != 2:
        raise ValueError("the decision procedure applies to 2-d binary CA")
    w = check_invariance(g)
    if w is not None:
        return DecisionReport("NOT_SA", "INVARIANCE", w)
    w = check_column_preservation(g)
    if w is not None:
        return DecisionReport("NOT_SA", "COLUMN_PRESERVATION", w)
    extracted = extract_sa_rule(g) if extract else None
    return DecisionReport("IS_SA", extracted=extracted)
