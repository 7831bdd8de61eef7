"""Bit-exact file formats: configurations, CA rules, trajectory records.

Configuration files (``sandcfg v1``) cover the 1-d descriptions; the 2-d
grids are an in-memory convenience only.  CA files (``carule v1``) carry
either a dense digit table or, when the table does not fit (the bridge
rules at radius 2 already need 2^25 entries), an embedded sand rule that
the CA is built from on load.
"""

from __future__ import annotations

import json

from .bridge import build_ca_from_sa
from .ca import CaRule, table_rule
from .dsl import RuleProgram, parse_rule, serialize_rule
from .heights import format_height, is_finite, parse_height
from .lattice import Configuration, Kind, line_config, periodic_config
from .sa import OrbitRecord


class FormatError(ValueError):
    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
        self.reason = message


def _fields(text: str):
    out = []
    for i, raw in enumerate(text.split("\n")):
        line = raw.strip()
        if line:
            out.append((i + 1, line))
    return out


def _take(entries, idx, key, line_hint):
    if idx >= len(entries):
        raise FormatError(f"missing '{key}' line", line_hint)
    ln, line = entries[idx]
    parts = line.split(None, 1)
    if parts[0] != key:
        raise FormatError(f"expected '{key}', got {parts[0]!r}", ln)
    if len(parts) < 2:
        raise FormatError(f"'{key}' needs a value", ln)
    return ln, parts[1].strip()


def _heights_from(entries, idx):
    if idx >= len(entries):
        return 1, []
    ln, line = entries[idx]
    parts = line.split()
    if parts[0] != "heights":
        raise FormatError(f"expected 'heights', got {parts[0]!r}", ln)
    try:
        vals = [parse_height(p) for p in parts[1:]]
    except ValueError as e:
        raise FormatError(str(e), ln) from None
    if idx + 1 < len(entries):
        raise FormatError("trailing lines after heights", entries[idx + 1][0])
    return ln, vals


def parse_config(text: str) -> Configuration:
    entries = _fields(text)
    if not entries or entries[0][1] != "sandcfg v1":
        ln = entries[0][0] if entries else 1
        raise FormatError("expected 'sandcfg v1' header", ln)
    ln, dim_text = _take(entries, 1, "dim", entries[0][0])
    if dim_text != "1":
        raise FormatError("config files support dim 1 only", ln)
    ln, kind = _take(entries, 2, "kind", ln)
    if kind == "periodic":
        pln, p_text = _take(entries, 3, "period", ln)
        _, vals = _heights_from(entries, 4)
        try:
            p = int(p_text)
        except ValueError:
            raise FormatError("period must be an integer", pln) from None
        if p < 1 or len(vals) != p:
            raise FormatError(f"expected {p_text} heights for the period", pln)
        try:
            return periodic_config(vals)
        except (TypeError, OverflowError) as e:
            raise FormatError(str(e)) from None
    if kind != "eventually-constant":
        raise FormatError(f"unknown kind {kind!r}", ln)
    idx = 3
    _, line = entries[idx] if idx < len(entries) else (0, "")
    if line.startswith("bg"):
        bln, bg_text = _take(entries, idx, "bg", ln)
        left_text = right_text = bg_text
        idx += 1
    else:
        bln, left_text = _take(entries, idx, "left", ln)
        bln, right_text = _take(entries, idx + 1, "right", bln)
        idx += 2
    oln, origin_text = _take(entries, idx, "origin", bln)
    _, vals = _heights_from(entries, idx + 1)
    try:
        origin = int(origin_text)
    except ValueError:
        raise FormatError("origin must be an integer", oln) from None
    try:
        left = parse_height(left_text)
        right = parse_height(right_text)
        return line_config(vals, origin, left, right)
    except (ValueError, TypeError, OverflowError) as e:
        raise FormatError(str(e), bln) from None


def serialize_config(x: Configuration) -> str:
    if x.dim != 1:
        raise FormatError("config files support dim 1 only")
    lines = ["sandcfg v1", "dim 1"]
    if x.kind is Kind.PERIODIC:
        lines.append("kind periodic")
        lines.append(f"period {x.period}")
        lines.append("heights " + " ".join(format_height(v) for v in x.cells))
    else:
        lines.append("kind eventually-constant")
        if x.left == x.right:
            lines.append(f"bg {format_height(x.left)}")
        else:
            lines.append(f"left {format_height(x.left)}")
            lines.append(f"right {format_height(x.right)}")
        lines.append(f"origin {x.origin}")
        line = "heights"
        if x.core:
            line += " " + " ".join(format_height(v) for v in x.core)
        lines.append(line)
    return "\n".join(lines) + "\n"


# --- CA rule files ----------------------------------------------------------


def parse_ca(text: str) -> CaRule:
    entries = _fields(text)
    if not entries or entries[0][1] != "carule v1":
        ln = entries[0][0] if entries else 1
        raise FormatError("expected 'carule v1' header", ln)
    ln = entries[0][0]
    header = []
    for idx, key, low, high in ((1, "dim", 1, 2), (2, "radius", 0, None), (3, "states", 1, None)):
        ln, value_text = _take(entries, idx, key, ln)
        try:
            value = int(value_text)
        except ValueError:
            raise FormatError(f"{key} must be an integer", ln) from None
        if value < low or (high is not None and value > high):
            bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
            raise FormatError(f"{key} must be {bounds}, got {value}", ln)
        header.append(value)
    dim, radius, states = header
    if len(entries) <= 4:
        raise FormatError("missing 'table' or 'bridge' section", ln)
    bln, body = entries[4]
    if body == "bridge":
        # everything after the 'bridge' line is a sand rule program
        idx = text.index("bridge")
        g = bridge_ca_from_program(parse_rule(text[idx + len("bridge") :]))
        if (g.dim, g.radius, g.states) != (dim, radius, states):
            raise FormatError("bridge header does not match the embedded rule", bln)
        return g
    parts = body.split(None, 1)
    if parts[0] != "table" or len(parts) < 2:
        raise FormatError("expected 'table DIGITS' or 'bridge'", bln)
    digits = parts[1].replace(" ", "")
    if states > 10:
        raise FormatError("digit tables support at most 10 states", bln)
    try:
        tab = [int(c) for c in digits]
    except ValueError:
        raise FormatError("table must be decimal digits", bln) from None
    if len(entries) > 5:
        raise FormatError("trailing lines after table", entries[5][0])
    try:
        return table_rule(dim, radius, states, tab)
    except ValueError as e:
        raise FormatError(str(e), bln) from None


def serialize_ca(g: CaRule) -> str:
    head = [
        "carule v1",
        f"dim {g.dim}",
        f"radius {g.radius}",
        f"states {g.states}",
    ]
    prog = getattr(g, "_program", None)
    if prog is not None:
        return "\n".join(head) + "\nbridge\n" + serialize_rule(prog)
    if g.table is None:
        raise FormatError("cannot serialize a function-backed CA without a table")
    digits = "".join(str(v) for v in g.table)
    return "\n".join(head) + f"\ntable {digits}\n"


def bridge_ca_from_program(prog: RuleProgram) -> CaRule:
    g = build_ca_from_sa(prog.to_rule())
    g._program = prog
    return g


# --- trajectory records -----------------------------------------------------


def _json_height(v):
    return v if isinstance(v, int) else format_height(v)


def trajectory_record(rec: OrbitRecord) -> str:
    x = rec.config
    obj: dict = {"step": rec.step}
    if x.kind is Kind.PERIODIC:
        obj.update(origin=0, period=x.period, cells=[_json_height(v) for v in x.cells])
    else:
        obj.update(
            origin=x.origin,
            left=format_height(x.left),
            right=format_height(x.right),
            core=[_json_height(v) for v in x.core],
        )
    return json.dumps(obj, separators=(",", ":"))


_PERIODIC_FIELDS = {"step", "origin", "period", "cells"}
_LINE_FIELDS = {"step", "origin", "left", "right", "core"}


def parse_trajectory_record(line: str) -> OrbitRecord:
    """Read one record; only the form ``trajectory_record`` writes is accepted."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad trajectory record: {e}") from None
    if not isinstance(obj, dict) or set(obj) not in (_PERIODIC_FIELDS, _LINE_FIELDS):
        raise FormatError("bad trajectory record: unexpected fields")
    try:
        step, origin = _json_int(obj["step"]), _json_int(obj["origin"])
        if "cells" in obj:
            cells = [_from_json(v) for v in obj["cells"]]
            if origin != 0 or _json_int(obj["period"]) != len(cells):
                raise ValueError("periodic records have origin 0 and one cell per period")
            x = periodic_config(cells)
        else:
            left, right = _height_text(obj["left"]), _height_text(obj["right"])
            x = line_config([_from_json(v) for v in obj["core"]], origin, left, right)
    except (TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad trajectory record: {e}") from None
    return OrbitRecord(step, x)


def _json_int(v) -> int:
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _height_text(text):
    """A height in exactly the text ``format_height`` writes."""
    h = parse_height(text)
    if format_height(h) != text:
        raise ValueError(f"not a height: {text!r}")
    return h


def _from_json(v):
    """A cell as ``_json_height`` writes it: an integer, or an infinity as text."""
    if type(v) is int:
        return v
    h = _height_text(v)
    if is_finite(h):
        raise ValueError(f"finite heights are JSON integers, got {v!r}")
    return h


def read_trajectory(text: str) -> list[OrbitRecord]:
    recs = [parse_trajectory_record(ln) for ln in text.splitlines() if ln.strip()]
    for a, b in zip(recs, recs[1:]):
        if b.step <= a.step:
            raise FormatError("trajectory steps must strictly increase")
    return recs
