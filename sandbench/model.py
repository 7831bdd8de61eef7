"""The benchmark's own model of sand rules, configurations and binary CA.

Everything the workloads feed to sandlab is generated here from a seeded
``random.Random`` and written out as ``sarule``/``sandcfg``/``carule``
text.  The same objects carry an independent local function, stepper and
decider, so the correctness checks never consult the code under test.
Nothing here imports sandlab.
"""

from __future__ import annotations

import math
from itertools import product

PINF = math.inf
NINF = -math.inf


def fmt_height(v) -> str:
    if v == PINF:
        return "+inf"
    if v == NINF:
        return "-inf"
    return str(v)


def beta(r: int, m, n):
    """Saturating comparator, as in the paper: n seen from the top m."""
    if n > m + r:
        return PINF
    if n < m - r:
        return NINF
    return n - m


def offsets(dim: int, r: int) -> list[tuple[int, ...]]:
    """Range offsets without the center, lexicographic (the file order)."""
    return [o for o in product(range(-r, r + 1), repeat=dim) if any(o)]


# --- sand rules --------------------------------------------------------------


class Rule:
    """A guarded sand rule: first matching case wins, else the default.

    ``cases`` holds (condition, output); a condition is ("atom", offset, op,
    value), ("and", parts), ("or", parts) or ("not", inner).  ``table``
    replaces the cases for dense rules: a dict from range entries to output.
    """

    def __init__(self, name, dim, radius, cases, default, table=None):
        self.name, self.dim, self.radius = name, dim, radius
        self.cases, self.default, self.table = cases, default, table
        self.offs = offsets(dim, radius)
        self._pos = {o: k for k, o in enumerate(self.offs)}

    def local(self, entries: tuple) -> int:
        if self.table is not None:
            return self.table.get(entries, self.default)
        for cond, out in self.cases:
            if self._holds(cond, entries):
                return out
        return self.default

    def _holds(self, cond, entries) -> bool:
        tag = cond[0]
        if tag == "atom":
            _, off, op, w = cond
            v = entries[self._pos[off]]
            return {
                "<": v < w, "<=": v <= w, "==": v == w,
                "!=": v != w, ">=": v >= w, ">": v > w,
            }[op]
        if tag == "and":
            return all(self._holds(p, entries) for p in cond[1])
        if tag == "or":
            return any(self._holds(p, entries) for p in cond[1])
        return not self._holds(cond[1], entries)

    def text(self) -> str:
        lines = ["sarule v1", f"dim {self.dim}", f"radius {self.radius}"]
        if self.table is not None:
            for entries in sorted(self.table):
                atoms = " && ".join(
                    f"R[{','.join(map(str, o))}] == {fmt_height(v)}"
                    for o, v in zip(self.offs, entries)
                )
                lines.append(f"case {atoms} => {self.table[entries]}")
        else:
            for cond, out in self.cases:
                lines.append(f"case {_cond_text(cond)} => {out}")
        lines.append(f"default => {self.default}")
        return "\n".join(lines) + "\n"


def _cond_text(cond, top=True) -> str:
    tag = cond[0]
    if tag == "atom":
        _, off, op, w = cond
        return f"R[{','.join(map(str, off))}] {op} {fmt_height(w)}"
    if tag == "not":
        return f"!({_cond_text(cond[1], False)})"
    joiner = " && " if tag == "and" else " || "
    text = joiner.join(_cond_text(p, False) for p in cond[1])
    return text if top else f"({text})"


def collapse(r: int, dim: int = 1) -> Rule:
    atoms = tuple(("atom", o, "<", 0) for o in offsets(dim, r))
    return Rule(f"collapse{r}d{dim}", dim, r, [(("or", atoms), -1)], 0)


def identity(r: int = 1) -> Rule:
    return Rule("identity", 1, r, [], 0)


def raising(r: int = 1) -> Rule:
    return Rule("raise", 1, r, [], 1)


_OPS = ("<", "<=", "==", "!=", ">=", ">")


def guarded(rand, r: int, dim: int = 1) -> Rule:
    """A random threshold rule: 2-4 cases of 1-3 atoms each."""
    offs = offsets(dim, r)
    values = [NINF] + list(range(-r, r + 1)) + [PINF]
    cases = []
    for _ in range(rand.randint(2, 4)):
        atoms = tuple(
            ("atom", rand.choice(offs), rand.choice(_OPS), rand.choice(values))
            for _ in range(rand.randint(1, 3))
        )
        cond = atoms[0] if len(atoms) == 1 else (rand.choice(("and", "or")), atoms)
        if rand.random() < 0.2:
            cond = ("not", cond)
        cases.append((cond, rand.randint(-r, r)))
    return Rule(f"guarded{r}", dim, r, cases, rand.randint(-r, r))


def dense_table(rand, r: int = 1) -> Rule:
    """A random total table over every range of radius r, dimension 1."""
    values = [NINF] + list(range(-r, r + 1)) + [PINF]
    outs = {e: rand.randint(-r, r) for e in product(values, repeat=2 * r)}
    counts = {}
    for v in outs.values():
        counts[v] = counts.get(v, 0) + 1
    default = max(sorted(counts), key=lambda k: counts[k])
    table = {e: v for e, v in outs.items() if v != default}
    return Rule(f"table{r}", 1, r, [], default, table=table)


# --- 1-d configurations ---------------------------------------------------------


class Line:
    """A 1-d configuration: eventually constant, or periodic (``cells``)."""

    def __init__(self, left=0, right=0, origin=0, core=(), cells=None):
        self.left, self.right, self.origin = left, right, origin
        self.core, self.cells = tuple(core), None if cells is None else tuple(cells)

    @classmethod
    def of(cls, x) -> "Line":
        """Read a sandlab Configuration through its public fields only."""
        if x.kind.value == "periodic":
            return cls(cells=x.cells)
        return cls(x.left, x.right, x.origin, x.core)

    def at(self, i: int):
        if self.cells is not None:
            return self.cells[i % len(self.cells)]
        j = i - self.origin
        if j < 0:
            return self.left
        if j < len(self.core):
            return self.core[j]
        return self.right

    def text(self) -> str:
        if self.cells is not None:
            return (
                "sandcfg v1\ndim 1\nkind periodic\n"
                f"period {len(self.cells)}\nheights {' '.join(map(fmt_height, self.cells))}\n"
            )
        bg = (
            f"bg {fmt_height(self.left)}"
            if self.left == self.right
            else f"left {fmt_height(self.left)}\nright {fmt_height(self.right)}"
        )
        return (
            f"sandcfg v1\ndim 1\nkind eventually-constant\n{bg}\norigin {self.origin}\n"
            f"heights {' '.join(map(fmt_height, self.core))}\n"
        )

    def span(self):
        """Inclusive index interval outside which the backgrounds hold."""
        if self.cells is not None:
            return 0, len(self.cells) - 1
        return self.origin, self.origin + max(len(self.core), 1) - 1


def _new(rule: Rule, c, window) -> object:
    if c == PINF or c == NINF:
        return c
    r = rule.radius
    return c + rule.local(tuple(beta(r, c, window[o]) for o in range(-r, r + 1) if o))


def step_line(rule: Rule, x: Line) -> Line:
    """One brute-force step over a window covering the light cone."""
    r = rule.radius
    if x.cells is not None:
        p = len(x.cells)
        return Line(cells=[
            _new(rule, x.cells[i], {o: x.cells[(i + o) % p] for o in range(-r, r + 1)})
            for i in range(p)
        ])
    flat = (0,) * (2 * r)
    bg = [v if v in (PINF, NINF) else v + rule.local(flat) for v in (x.left, x.right)]
    lo, hi = x.span()
    lo, hi = lo - r, hi + r
    core = [
        _new(rule, x.at(i), {o: x.at(i + o) for o in range(-r, r + 1)})
        for i in range(lo, hi + 1)
    ]
    return Line(bg[0], bg[1], lo, core)


def same_line(x: Line, y: Line) -> bool:
    """Equality of the denoted infinite configurations."""
    if (x.cells is None) != (y.cells is None):
        px = len(x.cells) if x.cells is not None else len(y.cells)
        ec = y if x.cells is not None else x
        if ec.left != ec.right:
            return False
        per = x if x.cells is not None else y
        return all(per.at(i) == ec.left for i in range(px))
    if x.cells is not None:
        n = math.lcm(len(x.cells), len(y.cells))
        return all(x.at(i) == y.at(i) for i in range(n))
    if x.left != y.left or x.right != y.right:
        return False
    lo = min(x.span()[0], y.span()[0]) - 1
    hi = max(x.span()[1], y.span()[1]) + 1
    return all(x.at(i) == y.at(i) for i in range(lo, hi + 1))


def is_canonical(x: Line) -> bool:
    """The unique-description rule sandlab promises for every result."""
    if x.cells is not None:
        p = len(x.cells)
        return p > 1 and all(x.cells != x.cells[q:] + x.cells[:q] for q in range(1, p) if p % q == 0)
    if x.core:
        return x.core[0] != x.left and x.core[-1] != x.right
    return x.origin == 0 or x.left != x.right


# --- 2-d configurations ---------------------------------------------------------


class Grid:
    def __init__(self, bg, origin, rows):
        self.bg, self.origin, self.rows = bg, tuple(origin), [list(r) for r in rows]

    @classmethod
    def of(cls, x) -> "Grid":
        return cls(x.left, x.origin, x.core)

    def at(self, a: int, b: int):
        i, j = a - self.origin[0], b - self.origin[1]
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[0]):
            return self.rows[i][j]
        return self.bg

    def box(self):
        n1 = len(self.rows)
        n2 = len(self.rows[0]) if self.rows else 0
        return self.origin[0], self.origin[0] + n1 - 1, self.origin[1], self.origin[1] + n2 - 1


def step_grid(rule: Rule, x: Grid) -> Grid:
    r = rule.radius
    offs = rule.offs
    bg = x.bg if x.bg in (PINF, NINF) else x.bg + rule.local((0,) * len(offs))
    a0, a1, b0, b1 = x.box()
    rows = []
    for a in range(a0 - r, a1 + r + 1):
        row = []
        for b in range(b0 - r, b1 + r + 1):
            c = x.at(a, b)
            if c in (PINF, NINF):
                row.append(c)
            else:
                row.append(c + rule.local(tuple(beta(r, c, x.at(a + da, b + db)) for da, db in offs)))
        rows.append(row)
    return Grid(bg, (a0 - r, b0 - r), rows)


def same_grid(x: Grid, y: Grid) -> bool:
    if x.bg != y.bg:
        return False
    bx, by = x.box(), y.box()
    a0, a1 = min(bx[0], by[0]) - 1, max(bx[1], by[1]) + 1
    b0, b1 = min(bx[2], by[2]) - 1, max(bx[3], by[3]) + 1
    return all(x.at(a, b) == y.at(a, b) for a in range(a0, a1 + 1) for b in range(b0, b1 + 1))


def grid_is_canonical(x: Grid) -> bool:
    if not x.rows:
        return x.origin == (0, 0)
    bg = x.bg
    return not (
        all(v == bg for v in x.rows[0])
        or all(v == bg for v in x.rows[-1])
        or all(r[0] == bg for r in x.rows)
        or all(r[-1] == bg for r in x.rows)
    )


# --- ascii rendering ------------------------------------------------------------


def ascii_frames(records: list[tuple[int, Line]]) -> str:
    """The documented ascii figure: '#' sand, '.' air, one frame per step."""
    hlo, hhi, vlo, vhi = -1, 1, -1, 1
    for _, x in records:
        if x.cells is not None:
            e = len(x.cells)
            hs = x.cells
        else:
            e = (
                max(abs(x.origin), abs(x.origin + len(x.core) - 1))
                if x.core
                else abs(x.origin) + 1
            )
            hs = (x.left, x.right) + x.core
        hlo, hhi = min(hlo, -e), max(hhi, e)
        for v in hs:
            if v not in (PINF, NINF):
                vlo, vhi = min(vlo, v - 1), max(vhi, v + 1)
    frames = []
    for n, x in records:
        rows = [
            "".join("#" if x.at(i) >= v else "." for i in range(hlo, hhi + 1))
            for v in range(vhi, vlo - 1, -1)
        ]
        frames.append(f"step {n}\n" + "\n".join(rows))
    return "\n\n".join(frames) + "\n"


# --- 2-d binary CA of radius 1, as dense tables ---------------------------------


def ca_table_text(table) -> str:
    return "carule v1\ndim 2\nradius 1\nstates 2\ntable " + "".join(map(str, table)) + "\n"


def nb_index(cols) -> int:
    """Table index of a 3x3 neighborhood given as 3-bit column masks.

    Cells are in pattern order (column-major, bottom-to-top), digit k being
    the cell's weight 2^k.
    """
    idx = 0
    for c, m in enumerate(cols):
        for v in range(3):
            idx |= ((m >> v) & 1) << (3 * c + v)
    return idx


def first_violation(table):
    """The decider's two exhaustive checks for a radius-1 binary CA.

    Returns None when the CA represents a sand automaton, else
    (check, tops) for the first failing hole-free window in scan order.
    """
    for tops in product(range(5), repeat=3):
        cols = [(1 << t) - 1 for t in tops]
        below = table[nb_index([c & 7 for c in cols])]
        above = table[nb_index([(c >> 1) & 7 for c in cols])]
        if below == 0 and above == 1:
            return "INVARIANCE", tops
    for central in (3, 0):
        for rest in product(range(4), repeat=2):
            tops = (rest[0], central, rest[1])
            out = table[nb_index([(1 << t) - 1 for t in tops])]
            if out != (1 if central == 3 else 0):
                return "COLUMN_PRESERVATION", tops
    return None


def invariance_windows(rho: int, tops=None) -> int:
    """Invariance windows scanned, in lexicographic order of the column
    tops, up to and including the witness ``tops`` (all of them if None)."""
    span = 2 * rho + 1
    if tops is None:
        return (span + 2) ** span
    k = 0
    for t in tops:
        k = k * (span + 2) + t
    return k + 1


def column_windows(rho: int, tops=None) -> int:
    """Column-preservation windows scanned: full central column first,
    then empty, the other tops lexicographic; up to the witness."""
    span = 2 * rho + 1
    per_center = (span + 1) ** (span - 1)
    if tops is None:
        return 2 * per_center
    k = 0
    for t in tops[:rho] + tops[rho + 1:]:
        k = k * (span + 1) + t
    return (0 if tops[rho] == span else per_center) + k + 1


def decider_windows(verdict: str, check, tops, rho: int) -> int:
    """Windows a decide_sa run covers before it answers."""
    if verdict == "IS_SA":
        return invariance_windows(rho) + column_windows(rho)
    if check == "INVARIANCE":
        return invariance_windows(rho, tops)
    return invariance_windows(rho) + column_windows(rho, tops)


def sa_shift_table(kind: str):
    """Radius-1 binary CA known to represent sand automata."""
    pick = {"identity": (1, 1), "raise": (1, 0), "lower": (1, 2)}
    c0, v0 = pick[kind]
    return [(idx >> (3 * c0 + v0)) & 1 for idx in range(512)]
