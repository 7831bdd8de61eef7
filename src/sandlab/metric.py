"""Measuring devices, cylinders, exact distances and the binary encoding.

Distances are returned as exact ``Fraction`` values (0 or a power of 1/2);
no floating point enters any comparison.  They come from a closed form:
``distance_exponent`` walks the sites outward once and finds the least
radius k at which the cylinders around 0 differ; the sites it reads and
then k are charged to ``SANDLAB_BUDGET`` before 2^-k is built.
``top_cylinder`` and ``ground_cylinder`` are the definitions, kept as the
reference the closed form is tested against.  The binary encoding maps a
1-d pile configuration to a 2-d {0,1} picture whose columns are filled up
to the pile height; its image is exactly the set of pictures with no hole
(a 0 with a 1 directly above it).  ``zeta_window`` gives each column as
its top count and ``zeta_decode_column`` reads one back from a bitmask,
the form the bridge's CA steps columns in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from math import isqrt

from .budget import enumeration_budget, require_budget
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
    for off in product(range(-r, r + 1), repeat=x.dim):
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
    for off in product(range(-r, r + 1), repeat=x.dim):
        j = tuple(a + b for a, b in zip(i, off))
        entries.append(beta(r, 0, height_at(x, j if x.dim > 1 else j[0])))
    return GroundCylinder(x.dim, r, tuple(entries))


def _site_chunks(x: Configuration, y: Configuration):
    """(rings, xs, ys) for runs of sites in walk order, ring by ring outward.

    ``rings`` gives the sup norm of each site, ``xs``/``ys`` the heights of
    x and y there.  The sites are read lazily, in 1-d as row chunks that
    double up to a fixed size, so the work follows how far the caller
    walks; site 0 comes twice there, once from each side, and a repeated
    pair changes no minimum.  The walk ends past both extents, where no
    pair it could still need is left (see ``distance_exponent``).
    """
    last = x.extent() + y.extent() + 1
    if x.dim == 1:
        lo, n = 0, 32
        while lo <= last:
            hi = min(last, lo + n - 1)
            rows = []
            for z in (x, y):  # z at lo, -lo, lo + 1, -(lo + 1), ...
                if lo:
                    right, left = read_row(z, lo, hi), read_row(z, -hi, -lo)[::-1]
                else:
                    window = read_row(z, -hi, hi)
                    right, left = window[hi:], window[hi::-1]
                row = right * 2
                row[0::2], row[1::2] = right, left
                rows.append(row)
            r = range(lo, hi + 1)
            yield chain.from_iterable(zip(r, r)), *rows
            lo, n = hi + 1, min(2 * n, 4096)
        return
    yield (0,), (height_at(x, (0, 0)),), (height_at(y, (0, 0)),)
    for d in range(1, last + 1):
        ring = [(i, s) for i in range(-d, d + 1) for s in (-d, d)]
        ring += [(s, i) for i in range(1 - d, d) for s in (-d, d)]
        yield (
            repeat(d, len(ring)),
            [height_at(x, j) for j in ring],
            [height_at(y, j) for j in ring],
        )


def distance_exponent(
    x: Configuration, y: Configuration, top: bool = False, cap: int | None = None
) -> int | None:
    """The least radius at which the cylinders of x and y around 0 differ.

    None when x == y; the distance is 2^-k for the returned k.  A site j
    with a = x_j != y_j = b first tells the ground cylinders apart at radius
    max(|j|, min(a, b), -max(a, b), 0), the radius where beta stops
    saturating both; the least such radius over all sites is k.  Top
    cylinders hold the centres raw (radius 0) and every other site relative
    to the shared centre (0 when it is infinite), so the same rule applies
    to the other sites with heights measured from that reference.

    The walk stops at the best radius so far, and past
    ``x.extent() + y.extent() + 1``: a pair (a, b) at a farther site already
    occurs nearer 0 (the backgrounds beside a full period or beside the
    other background), or, for two periodic rows, sites 0..p+q link its two
    residues through a chain of equal values (Fine and Wilf).  Some step of
    that chain from a to b is a nearer differing pair whose height term is
    no larger, since one of its ends is the end of (a, b) nearer 0.

    Without ``cap`` the work is charged to ``SANDLAB_BUDGET``: the sites
    read, (2d+1)^dim through ring d, as the walk goes, and k before 2^-k is
    built.  With ``cap`` nothing is charged; the walk stops at ring ``cap``
    and the result is min(k, cap).
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if x == y:
        return None
    if cap is None:
        limit = enumeration_budget()
        r = limit if x.dim == 1 else isqrt(limit)
        stop = (r + 1) // 2  # the first ring d with (2d+1)^dim > limit
    else:
        stop = cap
    pairs = chain.from_iterable(zip(*c) for c in _site_chunks(x, y))
    ref = 0
    if top:
        _, a, b = next(pairs)
        if a != b:
            return 0
        ref = a if is_finite(a) else 0
    best = None
    for d, a, b in pairs:
        if best is not None and d >= best:
            break
        if d >= stop:  # k >= d from here on
            if cap is not None:
                return cap
            require_budget((2 * d + 1) ** x.dim, "distance")
        if a != b:
            k = max(d, min(a, b) - ref, ref - max(a, b), 0)
            if best is None or k < best:
                best = k
    if cap is not None:
        return min(best, cap)
    if best > limit:
        require_budget(best, "distance")
    return best


def _dyadic(k: int | None) -> Fraction:
    return Fraction(0) if k is None else Fraction(1, 1 << k)


def dist_top(x: Configuration, y: Configuration) -> Fraction:
    """The top-cylinder distance; exact dyadic value, 0 iff equal."""
    return _dyadic(distance_exponent(x, y, top=True))


def dist_ground(x: Configuration, y: Configuration) -> Fraction:
    """The ground-cylinder distance; exact dyadic value, 0 iff equal."""
    return _dyadic(distance_exponent(x, y))


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


class HolePresent(ValueError):
    """A 0 with a 1 directly above it: not in the encoding's image."""


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


def zeta_decode_column(mask: int, k_lo: int, k_hi: int):
    """Recover a pile height from one encoded column over [k_lo, k_hi].

    Bit v of ``mask`` is the cell at height k_lo + v, the column form of
    ``extend_columns`` (a top t encodes as ``(1 << t) - 1``).  The column
    has a hole iff ``mask & (mask + 1)``; otherwise the height is its
    topmost 1, at k_lo + ``mask.bit_length()`` - 1.  That height is only
    determined strictly inside the window: an empty or a full column is
    UNDETERMINED.
    """
    n = k_hi - k_lo + 1
    if mask >> n:
        raise ValueError("column length does not match the interval")
    if mask & (mask + 1):
        raise HolePresent("column has a 0 below a 1")
    t = mask.bit_length()
    if t == 0 or t == n:
        return UNDETERMINED
    return k_lo + t - 1
