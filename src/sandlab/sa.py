"""Ranges, sand-automaton local rules and exact global steps.

A local rule maps the saturated relative-height neighborhood seen from the
top of a pile (its range) to a variation in [-r, r].  Every rule is a
``FuncRule``: a function of the range, memoized by its entries tuple unless
built with ``memoize=False``.  ``FuncRule.apply`` is the one place the
function runs, and it checks each output against [-r, r] before the value
enters the memo.  A dense table is one more function
(``dense_rule`` reads ``table[range_index(rng)]``).  The global step acts
exactly on the finite configuration descriptions: infinite piles are fixed,
backgrounds move by the flat-range variation, and the core is recomputed
over the light cone before re-canonicalizing.

All three shapes (eventually constant in dimension 1 or 2, periodic) share
one windowed kernel.  ``step`` pads the description once into a flat
row-major buffer: the core with 2r background piles on every side, or one
period widened by r piles each way.  In dimension 1 that buffer is one
``lattice.read_row``.  The kernel turns the range offsets into buffer
deltas once per call, saturates each pile's entries inline and looks the
entries tuple up in the rule's memo, building a ``Range`` only on a miss;
the memo holds checked values only, so a hit is used as it is.
The work of one step (piles times range size) is charged to
``SANDLAB_BUDGET`` before anything is built.  ``oracle_step_window`` and
``range_at`` stay naive per-pile references, and the kernel is tested
against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .budget import require_budget
from .heights import Height, MINUS_INF, PLUS_INF, add, is_finite
from .lattice import (
    Configuration,
    Kind,
    constant,
    grid_config,
    height_at,
    line_config,
    periodic_config,
    read_row,
)
from .metric import beta


class CenterInfiniteError(ValueError):
    """Ranges are only defined at piles with a finite number of grains."""


def range_offsets(dim: int, r: int) -> list[tuple[int, ...]]:
    """Off-center offsets of a radius-r range, lexicographically sorted."""
    return [o for o in product(range(-r, r + 1), repeat=dim) if any(v != 0 for v in o)]


@lru_cache(maxsize=None)
def _offset_positions(dim: int, r: int) -> dict:
    """Offset -> position of its entry in a radius-r range."""
    return {o: k for k, o in enumerate(range_offsets(dim, r))}


@dataclass(frozen=True)
class Range:
    dim: int
    radius: int
    entries: tuple  # values at range_offsets(dim, radius), in that order

    def __post_init__(self):
        if len(self.entries) != (2 * self.radius + 1) ** self.dim - 1:
            raise ValueError("wrong number of range entries")

    def entry(self, offset) -> Height:
        if isinstance(offset, int):
            offset = (offset,)
        pos = _offset_positions(self.dim, self.radius).get(tuple(offset))
        if pos is None:
            raise ValueError(f"offset {tuple(offset)} is not in a radius-{self.radius} range")
        return self.entries[pos]


def flat_range(dim: int, r: int) -> Range:
    return Range(dim, r, (0,) * ((2 * r + 1) ** dim - 1))


def table_digit(r: int, v: Height) -> int:
    """Entry value -> digit: -inf, -r..r, +inf map to 0..2r+2."""
    if v == MINUS_INF:
        return 0
    if v == PLUS_INF:
        return 2 * r + 2
    return v + r + 1


def range_index(rng: Range) -> int:
    """Dense-table index: sum of digit * (2r+3)^position over sorted offsets."""
    r = rng.radius
    base = 2 * r + 3
    idx = 0
    for pos, v in enumerate(rng.entries):
        idx += table_digit(r, v) * base**pos
    return idx


def all_ranges(dim: int, r: int):
    n = (2 * r + 1) ** dim - 1
    vals = [MINUS_INF] + list(range(-r, r + 1)) + [PLUS_INF]
    for entries in product(vals, repeat=n):
        yield Range(dim, r, entries)


class FuncRule:
    """A local rule: ``fn`` maps a range to a variation in [-r, r].

    ``apply`` is the only place ``fn`` runs.  Its output is checked against
    [-r, r] before it enters the memo, so the memo holds checked values
    only and a hit needs no check; a rule without a memo is checked on
    every call.
    """

    def __init__(self, dim: int, radius: int, fn, name: str, memoize: bool = False):
        self.dim, self.radius, self.fn, self.name = dim, radius, fn, name
        self._memo: dict | None = {} if memoize else None

    def apply(self, rng: Range) -> int:
        if rng.dim != self.dim or rng.radius != self.radius:
            raise ValueError("range does not match rule signature")
        memo = self._memo
        if memo is not None:
            v = memo.get(rng.entries)
            if v is not None:
                return v
        v = self.fn(rng)
        if not -self.radius <= v <= self.radius:
            raise ValueError(f"rule {self.name} returned {v} outside [-r, r]")
        if memo is not None:
            memo[rng.entries] = v
        return v

    def __repr__(self):
        return f"<FuncRule {self.name} dim={self.dim} r={self.radius}>"


def dense_rule(dim: int, radius: int, table, name: str = "TABLE") -> FuncRule:
    """The rule whose output at a range is ``table[range_index(rng)]``."""
    n = (2 * radius + 3) ** ((2 * radius + 1) ** dim - 1)
    table = tuple(table)
    if len(table) != n:
        raise ValueError(f"dense table needs {n} entries")
    if any(not -radius <= v <= radius for v in table):
        raise ValueError("table outputs must lie in [-r, r]")
    return FuncRule(dim, radius, lambda rng: table[range_index(rng)], name, memoize=True)


def identity_rule(radius: int = 1, dim: int = 1) -> FuncRule:
    return FuncRule(dim, radius, lambda rng: 0, "IDENTITY", memoize=True)


def raise_rule(radius: int = 1, dim: int = 1) -> FuncRule:
    """The raising map: every pile gains one grain per step."""
    return FuncRule(dim, radius, lambda rng: 1, "RAISE", memoize=True)


def range_at(x: Configuration, i, r: int) -> Range:
    """The range of the pile at i, read neighbor by neighbor.

    This is the naive per-pile reference the stepping kernel is tested
    against; ``step`` itself never calls it.
    """
    if x.dim == 1 and isinstance(i, int):
        i = (i,)
    center = height_at(x, i if x.dim > 1 else i[0])
    if not is_finite(center):
        raise CenterInfiniteError(f"pile at {i} is infinite")
    entries = []
    for off in range_offsets(x.dim, r):
        j = tuple(a + b for a, b in zip(i, off))
        entries.append(beta(r, center, height_at(x, j if x.dim > 1 else j[0])))
    return Range(x.dim, r, tuple(entries))


def _bg_delta(f: FuncRule, bg: Height) -> int:
    if not is_finite(bg):
        return 0
    return f.apply(flat_range(f.dim, f.radius))


def _update(f: FuncRule, buf: list, strides: tuple, positions) -> list:
    """The stepping kernel: new heights at ``positions`` of a padded buffer.

    ``buf`` holds the piles in row-major order with ``strides`` per axis and
    at least r piles of padding around every position.  Entries are
    saturated inline with the comparisons of ``metric.beta`` and looked up
    in the rule's memo by the entries tuple; a ``Range`` is built, and
    checked by ``FuncRule.apply``, only on a miss or for rules without a
    memo.
    """
    r = f.radius
    deltas = [sum(o * s for o, s in zip(off, strides)) for off in range_offsets(f.dim, r)]
    memo = f._memo
    out = []
    for p in positions:
        c = buf[p]
        if isinstance(c, float):  # infinite piles are fixed
            out.append(c)
            continue
        entries = tuple(
            [d if -r <= d <= r else PLUS_INF if d > r else MINUS_INF for d in [buf[p + k] - c for k in deltas]]
        )
        v = None if memo is None else memo.get(entries)
        if v is None:
            v = f.apply(Range(f.dim, r, entries))
        out.append(add(c, v))
    return out


def step(f: FuncRule, x: Configuration) -> Configuration:
    """One synchronous update of the whole configuration."""
    if f.dim != x.dim:
        raise ValueError("dimension mismatch")
    r = f.radius
    # piles recomputed times range size, charged before any buffer is built;
    # a constant configuration still reads one flat range
    if x.kind is Kind.PERIODIC:
        piles = x.period
    elif x.is_constant():
        piles = 1
    elif x.dim == 1:
        piles = len(x.core) + 2 * r
    else:
        piles = (len(x.core) + 2 * r) * (len(x.core[0]) + 2 * r)
    require_budget(piles * ((2 * r + 1) ** f.dim - 1), "step")
    pad = 2 * r  # the light cone's r plus the range's r
    if x.kind is Kind.PERIODIC:
        p = x.period
        buf = read_row(x, -r, p + r - 1)
        return periodic_config(_update(f, buf, (1,), range(r, r + p)))
    if x.dim == 1:
        new_left = add(x.left, _bg_delta(f, x.left))
        new_right = add(x.right, _bg_delta(f, x.right))
        if x.is_constant():
            return line_config((), 0, new_left, new_right)
        buf = read_row(x, x.origin - pad, x.origin + len(x.core) - 1 + pad)
        core = _update(f, buf, (1,), range(r, len(buf) - r))
        return line_config(core, x.origin - r, new_left, new_right)
    bg = x.left
    new_bg = add(bg, _bg_delta(f, bg))
    if x.is_constant():
        return constant(new_bg, dim=2)
    n1, n2 = len(x.core) + 2 * r, len(x.core[0]) + 2 * r  # the output box
    width = n2 + 2 * r
    buf = [bg] * (pad * width)
    for row in x.core:
        buf += [bg] * pad + list(row) + [bg] * pad
    buf += [bg] * (pad * width)
    positions = [a * width + b for a in range(r, r + n1) for b in range(r, r + n2)]
    out = _update(f, buf, (width, 1), positions)
    rows = [out[k : k + n2] for k in range(0, len(out), n2)]
    (o1, o2) = x.origin
    return grid_config(rows, (o1 - r, o2 - r), new_bg)


@dataclass(frozen=True)
class OrbitRecord:
    step: int
    config: Configuration


def orbit(f: FuncRule, x: Configuration, n_steps: int) -> list[OrbitRecord]:
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    records = [OrbitRecord(0, x)]
    cur = x
    for n in range(1, n_steps + 1):
        cur = step(f, cur)
        records.append(OrbitRecord(n, cur))
    return records


def oracle_step_window(f: FuncRule, heights, n: int):
    """Brute-force n-step update of an explicit 1-d height array.

    Each step trims the radius off both ends, so only the light-cone-valid
    central region is returned.  This is the independent check for ``step``
    and for iterated rules; it never consults them.
    """
    if f.dim != 1:
        raise ValueError("the window oracle is one-dimensional")
    r = f.radius
    cur = list(heights)
    if len(cur) < 2 * n * r + 1:
        raise ValueError("window too small for the requested number of steps")
    for _ in range(n):
        nxt = []
        for i in range(r, len(cur) - r):
            c = cur[i]
            if not is_finite(c):
                nxt.append(c)
                continue
            entries = tuple(
                beta(r, c, cur[i + o]) for o in range(-r, r + 1) if o != 0
            )
            nxt.append(add(c, f.apply(Range(1, r, entries))))
        cur = nxt
    return tuple(cur)


def realize_range(rng: Range) -> tuple:
    """Canonical height array over [-R, R] realizing a 1-d range at center 0.

    Saturated entries are materialized at magnitude radius + 1, the least
    value the comparator still saturates on.
    """
    R = rng.radius
    arr: list[Height] = [0] * (2 * R + 1)
    for off, v in zip(range_offsets(1, R), rng.entries):
        o = off[0]
        if v == PLUS_INF:
            arr[o + R] = R + 1
        elif v == MINUS_INF:
            arr[o + R] = -(R + 1)
        else:
            arr[o + R] = v
    return tuple(arr)


def iterate_local_rule(f: FuncRule, n: int) -> FuncRule:
    """A single rule whose global map equals n applications of f.

    The radius is (3n-2)r.  Cells saturated at that precision start more
    than R grains from the center; a chain of unsaturated reads gains at
    most r per hop and heights drift at most r per step on each side, so
    the set of cells whose exact value matters closes on the center by at
    most 3r per step and still misses it after n-1 steps.  Entries are
    therefore read at radius (3n-2)r, with saturated neighbors realized
    just beyond it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.dim != 1:
        raise ValueError("rule iteration is implemented for dimension 1")
    r = f.radius
    R = (3 * n - 2) * r

    def fn(rng: Range) -> int:
        arr = realize_range(rng)
        out = oracle_step_window(f, arr, n)
        return out[len(out) // 2]

    return FuncRule(1, R, fn, f"{f.name}^{n}", memoize=True)
