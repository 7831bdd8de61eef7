"""Plot emission for trajectories: ascii frames and a static SVG figure.

Each pile becomes a column of glyphs ('#' sand, '.' air) clipped to a
vertical window; frames are stacked per step, and each frame reads its
row of piles once with ``lattice.read_row``.  The SVG variant draws the
same clipped columns as filled rectangles, one frame per step, and is a
static figure rather than anything interactive.  Both charge frames x
columns x rows to ``SANDLAB_BUDGET`` before they read any row.
"""

from __future__ import annotations

from .budget import require_budget
from .heights import is_finite
from .lattice import Configuration, read_row
from .sa import OrbitRecord


def default_window(records: list[OrbitRecord]) -> tuple[int, int, int, int]:
    """(hlo, hhi, vlo, vhi) covering every core with one cell of slack."""
    hlo, hhi = -1, 1
    vlo, vhi = -1, 1
    for rec in records:
        x = rec.config
        e = x.extent()
        hlo, hhi = min(hlo, -e), max(hhi, e)
        for v in x.heights():
            if is_finite(v):
                vlo, vhi = min(vlo, v - 1), max(vhi, v + 1)
    return hlo, hhi, vlo, vhi


def _charged_window(records: list[OrbitRecord], window) -> tuple[int, int, int, int]:
    """The window to draw, its frames x columns x rows charged to the budget."""
    if window is None:
        window = default_window(records)
    hlo, hhi, vlo, vhi = window
    require_budget(len(records) * (hhi - hlo + 1) * (vhi - vlo + 1), "render")
    return window


def ascii_frame(x: Configuration, hlo: int, hhi: int, vlo: int, vhi: int) -> str:
    row = read_row(x, hlo, hhi)
    return "\n".join("".join("#" if h >= v else "." for h in row) for v in range(vhi, vlo - 1, -1))


def render_ascii(records: list[OrbitRecord], window=None) -> str:
    hlo, hhi, vlo, vhi = _charged_window(records, window)
    frames = []
    for rec in records:
        frames.append(f"step {rec.step}\n" + ascii_frame(rec.config, hlo, hhi, vlo, vhi))
    return "\n\n".join(frames) + "\n"


_CELL = 12
_GAP = 18


def render_svg(records: list[OrbitRecord], window=None) -> str:
    hlo, hhi, vlo, vhi = _charged_window(records, window)
    cols = hhi - hlo + 1
    rows = vhi - vlo + 1
    frame_h = rows * _CELL
    width = cols * _CELL + 2 * _GAP
    height = len(records) * (frame_h + _GAP) + _GAP
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k, rec in enumerate(records):
        y0 = _GAP + k * (frame_h + _GAP)
        parts.append(
            f'<text x="{_GAP}" y="{y0 - 4}" font-family="monospace" font-size="10">'
            f"step {rec.step}</text>"
        )
        parts.append(
            f'<rect x="{_GAP}" y="{y0}" width="{cols * _CELL}" height="{frame_h}" '
            'fill="none" stroke="#888"/>'
        )
        for c, h in enumerate(read_row(rec.config, hlo, hhi)):
            filled = max(0, min(rows, h - vlo + 1))  # filled cells visible in the window
            if filled:
                x = _GAP + c * _CELL
                y = y0 + (rows - filled) * _CELL
                parts.append(
                    f'<rect x="{x}" y="{y}" width="{_CELL}" '
                    f'height="{filled * _CELL}" fill="#c2803d" stroke="#7a4a14"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
