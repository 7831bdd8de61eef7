"""Command line front end.

Exit codes: 0 success, 1 decision or property failure (NOT_SA, refuted
period, no convergence), 2 usage or parse errors.  All output is
deterministic; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .bridge import decide_sa
from .budget import BudgetExceeded, enumeration_budget
from .dsl import RuleParseError, parse_rule, program_from_table_rule, serialize_rule
from .files import (
    FormatError,
    bridge_ca_from_program,
    parse_ca,
    parse_config,
    read_trajectory,
    serialize_ca,
    trajectory_record,
)
from .metric import distance_exponent, zeta_window
from .nilpotency import SpreadingCa, detect_flatten, find_ultimate_period, reduction_program
from .sa import orbit
from .render import render_ascii, render_svg


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_rule(path: str):
    return parse_rule(_read(path)).to_rule()


def _load_config(path: str):
    return parse_config(_read(path))


def cmd_simulate(args) -> int:
    f = _load_rule(args.rule)
    x = _load_config(args.config)
    records = orbit(f, x, args.steps)
    _write(args.out, "".join(trajectory_record(r) + "\n" for r in records))
    return 0


def cmd_distance(args) -> int:
    a = _load_config(args.configs[0])
    b = _load_config(args.configs[1])
    k = distance_exponent(a, b, top=args.metric == "top")
    print("0" if k is None else f"2^-{k}")
    return 0


def cmd_encode(args) -> int:
    if args.hlo > args.hhi or args.vlo > args.vhi:
        print("error: the encoding window is empty (hlo > hhi or vlo > vhi)", file=sys.stderr)
        return 2
    x = _load_config(args.config)
    st = zeta_window(x, (args.hlo, args.hhi), (args.vlo, args.vhi))
    for row in range(st.height, 0, -1):
        print("".join("1" if t >= row else "0" for t in st.tops))
    return 0


def cmd_sa2ca(args) -> int:
    prog = parse_rule(_read(args.rule))
    if prog.dim != 1:
        print("error: the construction applies to 1-d rules", file=sys.stderr)
        return 2
    g = bridge_ca_from_program(prog)
    _write(args.out, serialize_ca(g))
    return 0


def cmd_check_sa(args) -> int:
    g = parse_ca(_read(args.ca))
    report = decide_sa(g, extract=args.extract is not None)
    print(f"verdict {report.verdict}")
    if report.verdict == "NOT_SA":
        print(f"failed-check {report.failed_check}")
        print(f"witness-tops {' '.join(str(t) for t in report.witness.tops)}")
        return 1
    if args.extract is not None:
        # a bridge-backed CA already carries the rule it was built from;
        # the extraction provably recovers it, so export that program
        prog = g.program
        if prog is None:
            prog = program_from_table_rule(report.extracted)
        _write(args.extract, serialize_rule(prog))
    return 0


def cmd_reduce_ca(args) -> int:
    g = parse_ca(_read(args.ca))
    if g.dim != 1:
        print("error: the reduction applies to 1-d CA", file=sys.stderr)
        return 2
    try:
        S = SpreadingCa(range(g.states), g.radius, g.apply_flat, name=g.name)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    _write(args.out, serialize_rule(reduction_program(S)))
    return 0


def cmd_flatten(args) -> int:
    f = _load_rule(args.rule)
    x = _load_config(args.config)
    rep = detect_flatten(f, x, args.budget)
    if rep.outcome == "CONVERGED":
        print(f"CONVERGED limit={rep.limit} steps={rep.steps}")
        return 0
    print(f"{rep.outcome}" + (f" note={rep.note}" if rep.note else ""))
    return 1


def cmd_period_search(args) -> int:
    f = _load_rule(args.rule)
    rep = find_ultimate_period(f, args.max_sum)
    if rep.outcome == "PERIODIC":
        print(f"PERIODIC preperiod={rep.preperiod} period={rep.period} drift={rep.drift}")
        return 0
    if rep.outcome == "REFUTED":
        print(f"REFUTED a={rep.a} b={rep.b}")
        return 1
    print(f"UNKNOWN bound={rep.bound}")
    return 1


def cmd_render(args) -> int:
    records = read_trajectory(_read(args.traj))
    if args.format == "ascii":
        _write(args.out, render_ascii(records))
    else:
        _write(args.out, render_svg(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sandlab", description="sand automata toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run an orbit and emit a JSONL trajectory")
    p.add_argument("--rule", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("distance", help="exact distance between two configurations")
    p.add_argument("--metric", choices=("ground", "top"), default="ground")
    p.add_argument("configs", nargs=2, metavar=("A", "B"))
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("encode", help="binary encoding of a window")
    p.add_argument("--config", required=True)
    p.add_argument("--hlo", type=int, required=True)
    p.add_argument("--hhi", type=int, required=True)
    p.add_argument("--vlo", type=int, required=True)
    p.add_argument("--vhi", type=int, required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("sa2ca", help="build the conjugate binary CA of a sand rule")
    p.add_argument("--rule", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_sa2ca)

    p = sub.add_parser("check-sa", help="decide whether a binary CA is a sand automaton")
    p.add_argument("--ca", required=True)
    p.add_argument("--extract", default=None, metavar="F")
    p.set_defaults(fn=cmd_check_sa)

    p = sub.add_parser("reduce-ca", help="sand rule simulating a spreading CA")
    p.add_argument("--ca", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_reduce_ca)

    p = sub.add_parser("flatten", help="watch an orbit for convergence to a constant")
    p.add_argument("--rule", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.set_defaults(fn=cmd_flatten)

    p = sub.add_parser("period-search", help="search for ultimate periodicity")
    p.add_argument("--rule", required=True)
    p.add_argument("--max-sum", type=int, required=True, dest="max_sum")
    p.set_defaults(fn=cmd_period_search)

    p = sub.add_parser("render", help="draw a trajectory as ascii frames or SVG")
    p.add_argument("--traj", required=True)
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        enumeration_budget()
    except ValueError as e:  # a malformed SANDLAB_BUDGET is a usage error
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (RuleParseError, FormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
