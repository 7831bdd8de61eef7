"""Finite-alphabet cellular automata on windows and finite line configs.

Rules are function-backed (a table rule's function reads its table); a
dense table is only materialized when it fits the budget.  Neighborhoods
travel as flat tuples in pattern order (offsets lexicographic, last axis
fastest; for the 2-d binary rules the last axis is vertical, bottom-to-top).

``CaRule`` owns the one memo, keyed by flat neighborhoods or, for 2-d
binary rules, by tuples of per-column bitmasks (``extend_columns``, the
throughput path of the bridge checks).  Every output is checked to be a
state; any other value raises ``ValueError``.
"""

from __future__ import annotations

from itertools import product

from .budget import require_budget
from .pattern import Pattern


class CaRule:
    def __init__(self, dim: int, radius: int, states: int, fn, name: str = "CA", table=None):
        self.dim, self.radius, self.states, self.name = dim, radius, states, name
        self.cells = (2 * radius + 1) ** dim
        self._fn = fn
        self.table = tuple(table) if table is not None else None
        self._memo: dict = {}

    def _evaluate(self, key: tuple, flat: tuple) -> int:
        v = self._fn(flat)
        if not 0 <= v < self.states:
            raise ValueError(f"rule {self.name} returned a non-state: {v}")
        self._memo[key] = v
        return v

    def apply_flat(self, flat: tuple) -> int:
        v = self._memo.get(flat)
        if v is None:
            v = self._evaluate(flat, flat)
        return v

    def apply_masks(self, masks: tuple[int, ...]) -> int:
        """A 2-d binary rule on a neighborhood given as column bitmasks."""
        v = self._memo.get(masks)
        if v is None:
            v = self._evaluate(masks, flat_from_masks(masks, self.radius))
        return v

    def __repr__(self):
        return f"<CaRule {self.name} dim={self.dim} r={self.radius} states={self.states}>"


def neighborhood_index(states: int, flat: tuple) -> int:
    idx = 0
    for pos, s in enumerate(flat):
        idx += s * states**pos
    return idx


def table_rule(dim: int, radius: int, states: int, table, name: str = "CA-TABLE") -> CaRule:
    cells = (2 * radius + 1) ** dim
    table = tuple(table)
    # states**cells outgrows len(table) once cells passes its bit length
    if (states > 1 and cells > len(table).bit_length()) or len(table) != states**cells:
        raise ValueError(f"dense table needs {states}**{cells} entries, got {len(table)}")
    if any(not 0 <= v < states for v in table):
        raise ValueError("table outputs must be states")

    def read(flat: tuple) -> int:
        return table[neighborhood_index(states, flat)]

    return CaRule(dim, radius, states, read, name=name, table=table)


def materialize_table(g: CaRule) -> CaRule:
    count = g.states**g.cells
    require_budget(count, "CA table materialization")
    if count > 2**26:
        raise ValueError("table too large to materialize")
    tab = [0] * count
    for flat in product(range(g.states), repeat=g.cells):
        tab[neighborhood_index(g.states, flat)] = g.apply_flat(flat)
    return table_rule(g.dim, g.radius, g.states, tab, name=g.name)


def ca_apply(g: CaRule, neighborhood: Pattern) -> int:
    expected = (2 * g.radius + 1,) * g.dim
    if neighborhood.dim != g.dim or neighborhood.order != expected:
        raise ValueError(f"neighborhood must have order {expected}")
    return g.apply_flat(neighborhood.entries)


def ca_extend(g: CaRule, U: Pattern) -> Pattern:
    """Simultaneous application over every inner position of U."""
    if U.dim != g.dim:
        raise ValueError("dimension mismatch")
    w = 2 * g.radius + 1
    if any(h < w for h in U.order):
        raise ValueError("every side of the window must span a neighborhood")
    out_order = tuple(h - w + 1 for h in U.order)
    entries = []
    for k in product(*(range(1, h + 1) for h in out_order)):
        sub = U.crop(k, tuple(a + w - 1 for a in k))
        entries.append(g.apply_flat(sub.entries))
    return Pattern(g.dim, out_order, tuple(entries))


def flat_from_masks(masks: tuple[int, ...], rho: int) -> tuple:
    """Decode a tuple of (2rho+1)-bit column masks into a flat neighborhood."""
    h = 2 * rho + 1
    return tuple((m >> v) & 1 for m in masks for v in range(h))


def extend_columns(g: CaRule, cols: list[int], height: int) -> tuple[list[int], int]:
    """One application of a 2-d binary rule over bitmask columns.

    Bit v of ``cols[c]`` is the cell at (c, v), bottom-to-top.  Shrinks the
    window by the radius on all four sides.
    """
    if g.dim != 2 or g.states != 2:
        raise ValueError("column path is for 2-d binary rules")
    rho = g.radius
    span = 2 * rho + 1
    mask = (1 << span) - 1
    out_h = height - 2 * rho
    if out_h < 1 or len(cols) < span:
        raise ValueError("window too small")
    memo = g._memo
    # every column's (2rho+1)-bit slices, cut once and shared by the span
    # of output columns that read it; zip then builds each key in one step
    slices = [[(col >> v) & mask for v in range(out_h)] for col in cols]
    out = []
    for c in range(rho, len(cols) - rho):
        bits = 0
        for v, key in enumerate(zip(*slices[c - rho : c + rho + 1])):
            val = memo.get(key)
            if val is None:
                val = g.apply_masks(key)
            if val:
                bits |= 1 << v
        out.append(bits)
    return out, out_h


def find_quiescent_states(g: CaRule) -> set[int]:
    """States fixed on their own uniform neighborhood."""
    out = set()
    for s in range(g.states):
        if g.apply_flat((s,) * g.cells) == s:
            out.add(s)
    return out


def find_spreading_states(g: CaRule) -> set[int]:
    """States s with g(U) = s whenever s occurs anywhere in U."""
    require_budget(g.states**g.cells, "spreading-state search")
    candidates = set(range(g.states))
    for flat in product(range(g.states), repeat=g.cells):
        if not candidates:
            break
        v = g.apply_flat(flat)
        present = set(flat)
        candidates -= {s for s in candidates if s in present and v != s}
    return candidates
