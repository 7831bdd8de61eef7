"""Finite-alphabet cellular automata on windows.

Rules are function-backed (a table rule's function reads its table).
Neighborhoods travel as flat tuples in pattern order (offsets lexicographic, last axis
fastest; for the 2-d binary rules the last axis is vertical, bottom-to-top).

``CaRule(dim, radius, states, fn)`` takes a function of flat neighborhoods
and owns the one memo.  2-d binary rules are also applied to tuples of
per-column bitmasks (``extend_columns``, the throughput path of the bridge
checks).  The bridge rule of ``bridge.build_ca_from_sa`` and 2-d binary
``table_rule``s read those masks themselves: their memo is keyed by masks
alone, and ``apply_flat`` encodes a flat neighborhood into masks first.
Any other 2-d binary rule decodes a mask key that misses its memo into a
flat neighborhood.  Every output is checked to be a state, and so is every
neighborhood entry before a rule reads it (a flat-keyed memo hit was checked
when it missed); any other value raises ``ValueError``.
"""

from __future__ import annotations

from itertools import product

from .pattern import Pattern


class CaRule:
    _reads_masks = False  # set by _mask_rule: fn takes the column-mask tuple

    def __init__(self, dim: int, radius: int, states: int, fn, name: str = "CA", table=None):
        self.dim, self.radius, self.states, self.name = dim, radius, states, name
        self.cells = (2 * radius + 1) ** dim
        self._fn = fn
        self.table = tuple(table) if table is not None else None
        # the sand rule program a bridge CA was built from, when it is known
        self.program = None
        self._memo: dict = {}

    def _evaluate(self, key: tuple, arg: tuple) -> int:
        v = self._fn(arg)
        if not 0 <= v < self.states:
            raise ValueError(f"rule {self.name} returned a non-state: {v}")
        self._memo[key] = v
        return v

    def _check_states(self, flat: tuple) -> None:
        for v in flat:
            if not 0 <= v < self.states:
                raise ValueError(f"rule {self.name} read a non-state: {v}")

    def apply_flat(self, flat: tuple) -> int:
        if self._reads_masks:
            self._check_states(flat)
            return self.apply_masks(_masks_from_flat(flat, self.radius))
        v = self._memo.get(flat)
        if v is None:
            # only checked neighborhoods enter the memo, so a hit needs no check
            self._check_states(flat)
            v = self._evaluate(flat, flat)
        return v

    def apply_masks(self, masks: tuple[int, ...]) -> int:
        """A 2-d binary rule on a neighborhood given as column bitmasks."""
        v = self._memo.get(masks)
        if v is None:
            arg = masks if self._reads_masks else flat_from_masks(masks, self.radius)
            v = self._evaluate(masks, arg)
        return v

    def __repr__(self):
        return f"<CaRule {self.name} dim={self.dim} r={self.radius} states={self.states}>"


def _mask_rule(radius: int, fn, name: str, table=None) -> CaRule:
    """A 2-d binary rule whose ``fn`` reads the column-mask tuple."""
    g = CaRule(2, radius, 2, fn, name=name, table=table)
    g._reads_masks = True
    return g


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
    if dim == 2 and states == 2:
        span = 2 * radius + 1

        # neighborhood_index(2, flat) with column c's bits at c * span
        def read_masks(masks: tuple) -> int:
            return table[sum(m << (c * span) for c, m in enumerate(masks))]

        return _mask_rule(radius, read_masks, name, table)

    def read(flat: tuple) -> int:
        return table[neighborhood_index(states, flat)]

    return CaRule(dim, radius, states, read, name=name, table=table)


def ca_extend(g: CaRule, U: Pattern) -> Pattern:
    """Simultaneous application over every inner position of U."""
    if U.dim != g.dim:
        raise ValueError("dimension mismatch")
    w = 2 * g.radius + 1
    if any(h < w for h in U.order):
        raise ValueError("every side of the window must span a neighborhood")
    g._check_states(U.entries)
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


def _masks_from_flat(flat: tuple, rho: int) -> tuple:
    """Encode a flat 2-d binary neighborhood as its (2rho+1)-bit column masks."""
    h = 2 * rho + 1
    return tuple(
        sum(b << v for v, b in enumerate(flat[c : c + h])) for c in range(0, len(flat), h)
    )


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
