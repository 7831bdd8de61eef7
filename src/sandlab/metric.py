"""Measuring devices, cylinders, exact distances and the binary encoding.

Distances are returned as exact ``Fraction`` values (0 or a power of 1/2);
no floating point enters any comparison.  The binary encoding maps a 1-d
pile configuration to a 2-d {0,1} picture whose columns are filled up to
the pile height; its image is exactly the set of pictures with no hole
(a 0 with a 1 directly above it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .budget import require_budget
from .heights import Height, MINUS_INF, PLUS_INF, is_finite
from .lattice import Configuration, height_at, read_row


def beta(r: int, m: Height, n: Height) -> Height:
    """Saturating comparator: relative height of n seen from reference m."""
    if not is_finite(m):
        raise ValueError("reference height must be finite")
    if n > m + r:
        return PLUS_INF
    if n < m - r:
        return MINUS_INF
    return n - m


def _offsets(dim: int, r: int):
    if dim == 1:
        return [(o,) for o in range(-r, r + 1)]
    return list(product(range(-r, r + 1), repeat=dim))


@dataclass(frozen=True)
class TopCylinder:
    dim: int
    radius: int
    entries: tuple  # flat, offsets in lexicographic order; center holds x_i


@dataclass(frozen=True)
class GroundCylinder:
    dim: int
    radius: int
    entries: tuple


def top_cylinder(x: Configuration, i, r: int) -> TopCylinder:
    if x.dim == 1 and isinstance(i, int):
        i = (i,)
    center = height_at(x, i if x.dim > 1 else i[0])
    ref = center if is_finite(center) else 0
    entries = []
    for off in _offsets(x.dim, r):
        if all(o == 0 for o in off):
            entries.append(center)
        else:
            j = tuple(a + b for a, b in zip(i, off))
            entries.append(beta(r, ref, height_at(x, j if x.dim > 1 else j[0])))
    return TopCylinder(x.dim, r, tuple(entries))


def ground_cylinder(x: Configuration, i, r: int) -> GroundCylinder:
    if x.dim == 1 and isinstance(i, int):
        i = (i,)
    entries = []
    for off in _offsets(x.dim, r):
        j = tuple(a + b for a, b in zip(i, off))
        entries.append(beta(r, 0, height_at(x, j if x.dim > 1 else j[0])))
    return GroundCylinder(x.dim, r, tuple(entries))


def _scan_cap(x: Configuration, y: Configuration) -> int:
    idx = x.extent() + y.extent() + 2
    finite = [abs(v) for v in x.heights() + y.heights() if isinstance(v, int)]
    val = max(finite, default=0)
    return idx + val + 2


def dist_top(x: Configuration, y: Configuration) -> Fraction:
    """The top-cylinder distance; exact dyadic value, 0 iff equal."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x == y:
        return Fraction(0)
    zero = (0,) if x.dim == 1 else (0, 0)
    for r in range(_scan_cap(x, y) + 1):
        if top_cylinder(x, zero, r) != top_cylinder(y, zero, r):
            return Fraction(1, 2**r)
    raise RuntimeError("distinct configurations with no differing top cylinder")


def dist_ground(x: Configuration, y: Configuration) -> Fraction:
    """The ground-cylinder distance; exact dyadic value, 0 iff equal."""
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x == y:
        return Fraction(0)
    zero = (0,) if x.dim == 1 else (0, 0)
    for r in range(_scan_cap(x, y) + 1):
        if ground_cylinder(x, zero, r) != ground_cylinder(y, zero, r):
            return Fraction(1, 2**r)
    raise RuntimeError("distinct configurations with no differing ground cylinder")


@dataclass(frozen=True)
class StaircasePattern:
    """A hole-free binary window, stored as per-column top counts.

    Column j (1-based) holds ``tops[j-1]`` ones below ``height - tops[j-1]``
    zeros, reading upward.
    """

    width: int
    height: int
    tops: tuple[int, ...]

    def __post_init__(self):
        if len(self.tops) != self.width:
            raise ValueError("one top count per column required")
        if any(not 0 <= t <= self.height for t in self.tops):
            raise ValueError("top counts must lie in [0, height]")

    def bit(self, col: int, row: int) -> int:
        """Cell at 1-based (column, row-from-bottom)."""
        if not (1 <= col <= self.width and 1 <= row <= self.height):
            raise IndexError("outside window")
        return 1 if row <= self.tops[col - 1] else 0


class HolePresent(ValueError):
    """A 0 with a 1 directly above it: not in the encoding's image."""


def column_is_monotone(bits) -> bool:
    """True when the column (bottom-to-top) has all its ones below its zeros."""
    seen_zero = False
    for b in bits:
        if b == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def zeta_window(x: Configuration, horiz, vert) -> StaircasePattern:
    """Binary encoding of a 1-d configuration over a finite window.

    Cell (i, k) is 1 iff the pile at i holds at least k grains; both
    intervals are inclusive and must be non-empty.  The window's cells are
    charged to ``SANDLAB_BUDGET`` before the row is read.
    """
    if x.dim != 1:
        raise ValueError("the encoding applies to 1-d configurations")
    hlo, hhi = horiz
    vlo, vhi = vert
    if hlo > hhi or vlo > vhi:
        raise ValueError("the encoding window is empty")
    width, height = hhi - hlo + 1, vhi - vlo + 1
    require_budget(width * height, "encoding")
    tops = tuple(max(0, min(height, v - vlo + 1)) for v in read_row(x, hlo, hhi))
    return StaircasePattern(width, height, tops)


UNDETERMINED = object()


def zeta_decode_column(
    bits,
    k_lo: int,
    k_hi: int,
    *,
    saturated_above: bool = False,
    saturated_below: bool = False,
):
    """Recover a pile height from one encoded column over [k_lo, k_hi].

    The height is the topmost 1; it is only determined when it lies strictly
    inside the window, unless the boundary flags assert that the column is
    saturated beyond it (then the matching infinity is returned).
    """
    bits = tuple(bits)
    if len(bits) != k_hi - k_lo + 1:
        raise ValueError("column length does not match the interval")
    if not column_is_monotone(bits):
        raise HolePresent("column has a 0 below a 1")
    ones = sum(bits)
    if ones == len(bits):
        return PLUS_INF if saturated_above else UNDETERMINED
    if ones == 0:
        return MINUS_INF if saturated_below else UNDETERMINED
    return k_lo + ones - 1

