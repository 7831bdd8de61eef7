"""Finitely-described infinite pile configurations and their basic maps.

Two description families cover everything the toolkit needs:

* eventually constant: a finite core plus a background on each side
  (dimension 1) or a single surrounding background (dimension 2);
* spatially periodic (dimension 1 only).

Every constructor canonicalizes, so two values denote the same infinite
configuration exactly when they compare equal.  A step configuration
(left background != right background with an empty core) is canonical with
the origin marking the boundary.

``read_row`` reads a 1-d description over an interval in one go
(background, core slice, background, or the period wrapped); every reader
of a 1-d interval uses it, and ``height_at`` stays the per-index reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .heights import Height, add, check_height


class Kind(Enum):
    EVENTUALLY_CONSTANT = "eventually-constant"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Configuration:
    dim: int
    kind: Kind
    # eventually-constant, dim 1: left/right backgrounds, origin, core
    # eventually-constant, dim 2: left == right == bg, origin pair, core rows
    left: Height | None = None
    right: Height | None = None
    origin: object = None
    core: tuple = ()
    # periodic (dim 1 only)
    cells: tuple = ()

    @property
    def period(self) -> int:
        return len(self.cells)

    def is_constant(self) -> bool:
        return (
            self.kind is Kind.EVENTUALLY_CONSTANT
            and not self.core
            and self.left == self.right
        )

    def heights(self):
        """All height values appearing in the description."""
        if self.kind is Kind.PERIODIC:
            return list(self.cells)
        vals = [self.left, self.right]
        if self.dim == 1:
            vals.extend(self.core)
        else:
            for row in self.core:
                vals.extend(row)
        return vals

    def is_bounded(self) -> bool:
        return all(isinstance(v, int) for v in self.heights())

    def extent(self) -> int:
        """Max |index| over the core (or the period), for scan bounds."""
        if self.kind is Kind.PERIODIC:
            return self.period
        if self.dim == 1:
            if not self.core:
                return abs(self.origin) + 1
            return max(abs(self.origin), abs(self.origin + len(self.core) - 1))
        (o1, o2) = self.origin
        n1 = len(self.core)
        n2 = len(self.core[0]) if self.core else 1
        return max(abs(o1), abs(o1 + n1 - 1), abs(o2), abs(o2 + n2 - 1))


def line_config(core, origin: int = 0, left: Height = 0, right: Height | None = None) -> Configuration:
    """Canonical 1-d eventually-constant configuration."""
    if right is None:
        right = left
    left = check_height(left)
    right = check_height(right)
    core = [check_height(v) for v in core]
    while core and core[0] == left:
        core.pop(0)
        origin += 1
    while core and core[-1] == right:
        core.pop()
    if not core and left == right:
        origin = 0
    return Configuration(
        1, Kind.EVENTUALLY_CONSTANT, left=left, right=right, origin=origin, core=tuple(core)
    )


def constant(c: Height, dim: int = 1) -> Configuration:
    if dim == 1:
        return line_config((), 0, c, c)
    return grid_config((), (0, 0), c)


def periodic_config(cells) -> Configuration:
    """Canonical 1-d periodic configuration; x_i = cells[i mod period]."""
    cells = tuple(check_height(v) for v in cells)
    if not cells:
        raise ValueError("period must be >= 1")
    p = len(cells)
    for q in range(1, p + 1):
        if p % q == 0 and cells == cells[q:] + cells[:q]:
            cells = cells[:q]
            break
    if len(cells) == 1:
        return constant(cells[0])
    return Configuration(1, Kind.PERIODIC, cells=cells)


def grid_config(rows, origin=(0, 0), bg: Height = 0) -> Configuration:
    """Canonical 2-d eventually-constant configuration.

    ``rows[a][b]`` holds the pile at ``(origin[0] + a, origin[1] + b)``.
    """
    bg = check_height(bg)
    rows = [list(map(check_height, r)) for r in rows]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("core must be rectangular")
    o1, o2 = origin
    while rows and all(v == bg for v in rows[0]):
        rows.pop(0)
        o1 += 1
    while rows and all(v == bg for v in rows[-1]):
        rows.pop()
    while rows and all(r[0] == bg for r in rows):
        for r in rows:
            r.pop(0)
        o2 += 1
        if not rows[0]:
            rows = []
    while rows and all(r[-1] == bg for r in rows):
        for r in rows:
            r.pop()
        if not rows[0]:
            rows = []
    if not rows:
        o1, o2 = 0, 0
    return Configuration(
        2,
        Kind.EVENTUALLY_CONSTANT,
        left=bg,
        right=bg,
        origin=(o1, o2),
        core=tuple(tuple(r) for r in rows),
    )


def height_at(x: Configuration, i) -> Height:
    """Pile value at lattice index i (int in dim 1, pair in dim 2)."""
    if x.dim == 1:
        if not isinstance(i, int):
            if isinstance(i, tuple) and len(i) == 1:
                i = i[0]
            else:
                raise ValueError("index dimension mismatch")
        if x.kind is Kind.PERIODIC:
            return x.cells[i % x.period]
        j = i - x.origin
        if j < 0:
            return x.left
        if j < len(x.core):
            return x.core[j]
        return x.right
    if not (isinstance(i, tuple) and len(i) == 2):
        raise ValueError("index dimension mismatch")
    a = i[0] - x.origin[0]
    b = i[1] - x.origin[1]
    if 0 <= a < len(x.core) and x.core and 0 <= b < len(x.core[0]):
        return x.core[a][b]
    return x.left


def shift(x: Configuration, k) -> Configuration:
    """sigma^k: shift(x, k) at i equals x at i + k."""
    if x.dim == 1:
        if not isinstance(k, int):
            (k,) = k
        if x.kind is Kind.PERIODIC:
            p = x.period
            return periodic_config(tuple(x.cells[(j + k) % p] for j in range(p)))
        return line_config(x.core, x.origin - k, x.left, x.right)
    return grid_config(x.core, (x.origin[0] - k[0], x.origin[1] - k[1]), x.left)


def raise_by(x: Configuration, n: int) -> Configuration:
    """rho^n: add n grains to every pile (negative n lowers)."""
    if x.kind is Kind.PERIODIC:
        return periodic_config(tuple(add(v, n) for v in x.cells))
    if x.dim == 1:
        return line_config(
            tuple(add(v, n) for v in x.core), x.origin, add(x.left, n), add(x.right, n)
        )
    return grid_config(
        tuple(tuple(add(v, n) for v in r) for r in x.core), x.origin, add(x.left, n)
    )


def read_row(x: Configuration, lo: int, hi: int) -> list:
    """Heights of a 1-d description at lo..hi, inclusive (empty if lo > hi)."""
    if x.dim != 1:
        raise ValueError("a row read needs a 1-d configuration")
    if x.kind is Kind.PERIODIC:
        k, n = lo % x.period, hi + 1 - lo
        return list((x.cells * ((k + n) // x.period + 1))[k : k + n])
    # [s, e) is the window relative to the core; a negative repeat count
    # gives an empty run of background
    s, e, n = lo - x.origin, hi + 1 - x.origin, len(x.core)
    return (
        [x.left] * ((e if e < 0 else 0) - s)
        + list(x.core[(s if s > 0 else 0) : (e if e > 0 else 0)])
        + [x.right] * (e - (s if s > n else n))
    )
