"""Line-oriented guarded-rule DSL for sand rules, with first-match wins.

    sarule v1
    dim 1
    radius 1
    case R[-1] < 0 || R[1] < 0 => -1
    default => 0

Conditions are ||/&&/! expressions over atoms ``R[o] CMP value`` where the
value is an integer or +inf/-inf.  Parse and semantic errors carry a
1-based line and column.  ``RuleProgram.to_rule`` compiles a program into
a memoized ``FuncRule``; the library's own program, the spreading-CA
reduction in ``nilpotency``, is built from these nodes.  The collapse
rules are plain functions (``nilpotency.make_collapse``); their text form
is one ``case`` of ``R[o] < 0`` atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .heights import Height, format_height, parse_height
from .sa import FuncRule, Range, range_offsets


class RuleParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


# --- condition AST ----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    offset: tuple[int, ...]
    op: str
    value: Height

    def eval(self, rng: Range) -> bool:
        v = rng.entry(self.offset)
        w = self.value
        if self.op == "<":
            return v < w
        if self.op == "<=":
            return v <= w
        if self.op == "==":
            return v == w
        if self.op == "!=":
            return v != w
        if self.op == ">=":
            return v >= w
        return v > w


@dataclass(frozen=True)
class Not:
    inner: object

    def eval(self, rng: Range) -> bool:
        return not self.inner.eval(rng)


@dataclass(frozen=True)
class And:
    parts: tuple

    def eval(self, rng: Range) -> bool:
        return all(p.eval(rng) for p in self.parts)


@dataclass(frozen=True)
class Or:
    parts: tuple

    def eval(self, rng: Range) -> bool:
        return any(p.eval(rng) for p in self.parts)


@dataclass(frozen=True)
class RuleProgram:
    dim: int
    radius: int
    cases: tuple  # ((condition, output), ...)
    default: int

    def evaluate(self, rng: Range) -> int:
        for cond, out in self.cases:
            if cond.eval(rng):
                return out
        return self.default

    def to_rule(self, name: str | None = None) -> FuncRule:
        return FuncRule(
            self.dim, self.radius, self.evaluate, name or "PROGRAM", memoize=True
        )


# --- tokenizer --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>R\[\s*-?\d+\s*(?:,\s*-?\d+\s*)?\])"
    r"|(?P<cmp><=|>=|==|!=|<|>)"
    r"|(?P<value>[+-]?inf|[+-]?\d+)"
    r"|(?P<op>\|\||&&|!|\(|\)))"
)


def _tokenize(text: str, line_no: int, col0: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = col0 + pos + (len(text[pos:]) - len(stripped))
            raise RuleParseError(f"unexpected input {stripped[:10]!r}", line_no, col + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), col0 + m.start(kind) + 1))
        pos = m.end()
    return tokens


class _CondParser:
    def __init__(self, tokens, line_no):
        self.tokens = tokens
        self.line = line_no
        self.i = 0

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _error(self, msg):
        tok = self._peek()
        col = tok[2] if tok else (self.tokens[-1][2] if self.tokens else 1)
        raise RuleParseError(msg, self.line, col)

    def parse(self):
        node = self.disjunction()
        if self._peek() is not None:
            self._error("trailing tokens after condition")
        return node

    def disjunction(self):
        parts = [self.conjunction()]
        while self._peek() and self._peek()[1] == "||":
            self.i += 1
            parts.append(self.conjunction())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conjunction(self):
        parts = [self.factor()]
        while self._peek() and self._peek()[1] == "&&":
            self.i += 1
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def factor(self):
        tok = self._peek()
        if tok is None:
            self._error("expected a condition")
        if tok[1] == "!":
            self.i += 1
            return Not(self.factor())
        if tok[1] == "(":
            self.i += 1
            node = self.disjunction()
            closing = self._peek()
            if closing is None or closing[1] != ")":
                self._error("expected ')'")
            self.i += 1
            return node
        return self.atom()

    def atom(self):
        tok = self._peek()
        if tok is None or tok[0] != "atom":
            self._error("expected R[offset]")
        inner = tok[1][2:-1]
        offset = tuple(int(p) for p in inner.split(","))
        self.i += 1
        cmp_tok = self._peek()
        if cmp_tok is None or cmp_tok[0] != "cmp":
            self._error("expected a comparison operator")
        self.i += 1
        val_tok = self._peek()
        if val_tok is None or val_tok[0] != "value":
            self._error("expected an integer or +inf/-inf")
        self.i += 1
        return Atom(offset, cmp_tok[1], parse_height(val_tok[1]))


# --- program parsing --------------------------------------------------------


def _header_int(line: str, key: str, line_no: int) -> int:
    m = re.fullmatch(rf"{key}\s+(-?\d+)", line.strip())
    if m is None:
        raise RuleParseError(f"expected '{key} INT'", line_no, 1)
    return int(m.group(1))


def _check_condition(node, dim: int, radius: int, line_no: int):
    if isinstance(node, Atom):
        if len(node.offset) != dim:
            raise RuleParseError(
                f"offset {list(node.offset)} has wrong dimension", line_no, 1
            )
        if all(o == 0 for o in node.offset):
            raise RuleParseError("conditions may not reference the center cell", line_no, 1)
        if any(abs(o) > radius for o in node.offset):
            raise RuleParseError(
                f"offset {list(node.offset)} outside radius {radius}", line_no, 1
            )
    elif isinstance(node, Not):
        _check_condition(node.inner, dim, radius, line_no)
    else:
        for p in node.parts:
            _check_condition(p, dim, radius, line_no)


def parse_rule(text: str) -> RuleProgram:
    lines = text.split("\n")
    entries = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not entries or entries[0][1].strip() != "sarule v1":
        ln = entries[0][0] if entries else 1
        raise RuleParseError("expected 'sarule v1' header", ln, 1)
    if len(entries) < 3:
        raise RuleParseError("missing dim/radius header", entries[-1][0], 1)
    dim = _header_int(entries[1][1], "dim", entries[1][0])
    radius = _header_int(entries[2][1], "radius", entries[2][0])
    if dim not in (1, 2):
        raise RuleParseError("dim must be 1 or 2", entries[1][0], 1)
    if radius < 0:
        raise RuleParseError("radius must be >= 0", entries[2][0], 1)
    cases = []
    default = None
    for line_no, raw in entries[3:]:
        line = raw.strip()
        if default is not None:
            raise RuleParseError("no lines may follow the default case", line_no, 1)
        if line.startswith("case"):
            body = line[4:]
            if "=>" not in body:
                raise RuleParseError("case needs '=> OUTPUT'", line_no, 1)
            cond_text, _, out_text = body.rpartition("=>")
            col0 = len(raw) - len(raw.lstrip()) + 4
            tokens = _tokenize(cond_text, line_no, col0)
            if not tokens:
                raise RuleParseError("empty condition", line_no, col0 + 1)
            cond = _CondParser(tokens, line_no).parse()
            _check_condition(cond, dim, radius, line_no)
            out = _parse_output(out_text, radius, line_no)
            cases.append((cond, out))
        elif line.startswith("default"):
            body = line[len("default") :].strip()
            if not body.startswith("=>"):
                raise RuleParseError("default needs '=> OUTPUT'", line_no, 1)
            default = _parse_output(body[2:], radius, line_no)
        else:
            raise RuleParseError(f"unrecognized line {line.split()[0]!r}", line_no, 1)
    if default is None:
        raise RuleParseError("missing default case", entries[-1][0], 1)
    return RuleProgram(dim, radius, tuple(cases), default)


def _parse_output(text: str, radius: int, line_no: int) -> int:
    text = text.strip()
    if not re.fullmatch(r"[+-]?\d+", text):
        raise RuleParseError(f"output must be an integer, got {text!r}", line_no, 1)
    out = int(text)
    if not -radius <= out <= radius:
        raise RuleParseError(f"output {out} outside [-radius, radius]", line_no, 1)
    return out


# --- serialization ----------------------------------------------------------


def _fmt_cond(node) -> str:
    if isinstance(node, Atom):
        off = ",".join(str(o) for o in node.offset)
        return f"R[{off}] {node.op} {format_height(node.value)}"
    if isinstance(node, Not):
        inner = _fmt_cond(node.inner)
        if isinstance(node.inner, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(node, And):
        parts = []
        for p in node.parts:
            s = _fmt_cond(p)
            if isinstance(p, Or):
                s = f"({s})"
            parts.append(s)
        return " && ".join(parts)
    return " || ".join(_fmt_cond(p) for p in node.parts)


def serialize_rule(prog: RuleProgram) -> str:
    lines = ["sarule v1", f"dim {prog.dim}", f"radius {prog.radius}"]
    for cond, out in prog.cases:
        lines.append(f"case {_fmt_cond(cond)} => {out}")
    lines.append(f"default => {prog.default}")
    return "\n".join(lines) + "\n"


# --- programs from rules ----------------------------------------------------


def program_from_table_rule(rule) -> RuleProgram:
    """Dense-case program listing every range of any sand rule.

    The rule is evaluated at every range of its signature (budgeted); the
    most frequent output becomes the default and every other range gets
    its own case.
    """
    from .budget import require_budget
    from .sa import all_ranges

    n_ranges = (2 * rule.radius + 3) ** ((2 * rule.radius + 1) ** rule.dim - 1)
    require_budget(n_ranges, "rule program materialization")
    offs = range_offsets(rule.dim, rule.radius)
    counts: dict[int, int] = {}
    entries = []
    for rng in all_ranges(rule.dim, rule.radius):
        out = rule.apply(rng)
        counts[out] = counts.get(out, 0) + 1
        entries.append((rng, out))
    default = max(sorted(counts), key=lambda k: counts[k])
    cases = []
    for rng, out in entries:
        if out == default:
            continue
        atoms = tuple(
            Atom(o, "==", v) for o, v in zip(offs, rng.entries)
        )
        cases.append((And(atoms) if len(atoms) > 1 else atoms[0], out))
    return RuleProgram(rule.dim, rule.radius, tuple(cases), default)
