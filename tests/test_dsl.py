import random

import pytest
from hypothesis import given, settings, strategies as st

from sandlab.dsl import (
    RuleParseError,
    parse_rule,
    program_from_table_rule,
    serialize_rule,
)
from sandlab.heights import MINUS_INF, PLUS_INF
from sandlab.nilpotency import build_reduction, make_collapse, min_ca, reduction_program
from sandlab.sa import Range, all_ranges

from samplers import sample_table_rules


COLLAPSE_TEXT = """sarule v1
dim 1
radius 1
case R[-1] < 0 || R[1] < 0 => -1
default => 0
"""


def test_parse_collapse_matches_builtin(data_dir):
    # every 1-d range, and 2000 sampled 2-d ones
    rand = random.Random(1)
    vals = [MINUS_INF, -1, 0, 1, PLUS_INF]
    sampled_2d = [Range(2, 1, tuple(rand.choice(vals) for _ in range(8))) for _ in range(2000)]
    for name, r, d, ranges in [
        ("collapse1", 1, 1, all_ranges(1, 1)),
        ("collapse2", 2, 1, all_ranges(1, 2)),
        ("collapse2d", 1, 2, sampled_2d),
    ]:
        f = parse_rule((data_dir / f"{name}.rule").read_text()).to_rule()
        g = make_collapse(r, d)
        for rng in ranges:
            assert f.apply(rng) == g.apply(rng), (name, rng)


def test_serialize_round_trip_bytes():
    prog = parse_rule(COLLAPSE_TEXT)
    assert serialize_rule(prog) == COLLAPSE_TEXT


def test_default_only_program():
    f = parse_rule("sarule v1\ndim 1\nradius 1\ndefault => 1\n").to_rule()
    assert all(f.apply(rng) == 1 for rng in all_ranges(1, 1))


def test_first_match_wins():
    text = (
        "sarule v1\ndim 1\nradius 1\n"
        "case R[1] >= 0 => 1\ncase R[1] >= 0 => -1\ndefault => 0\n"
    )
    f = parse_rule(text).to_rule()
    assert f.apply(Range(1, 1, (0, 0))) == 1


def test_infinity_atoms():
    text = (
        "sarule v1\ndim 1\nradius 1\n"
        "case R[1] == +inf => 1\ncase R[-1] != -inf => -1\ndefault => 0\n"
    )
    f = parse_rule(text).to_rule()
    assert f.apply(Range(1, 1, (0, PLUS_INF))) == 1
    assert f.apply(Range(1, 1, (MINUS_INF, 0))) == 0
    assert f.apply(Range(1, 1, (1, 0))) == -1


def test_parentheses_and_not():
    text = (
        "sarule v1\ndim 1\nradius 1\n"
        "case !(R[-1] < 0 || R[1] < 0) => 1\ndefault => -1\n"
    )
    f = parse_rule(text).to_rule()
    assert f.apply(Range(1, 1, (0, 0))) == 1
    assert f.apply(Range(1, 1, (-1, 0))) == -1


def test_two_dimensional_offsets():
    text = (
        "sarule v1\ndim 2\nradius 1\n"
        "case R[1,0] < 0 && R[0,1] < 0 => -1\ndefault => 0\n"
    )
    prog = parse_rule(text)
    f = prog.to_rule()
    assert f.dim == 2
    assert serialize_rule(parse_rule(serialize_rule(prog))) == serialize_rule(prog)


def test_offset_out_of_range_is_an_error():
    with pytest.raises(RuleParseError) as ei:
        parse_rule("sarule v1\ndim 1\nradius 1\ncase R[2] < 0 => -1\ndefault => 0\n")
    assert ei.value.line == 4


def test_center_offset_rejected():
    with pytest.raises(RuleParseError):
        parse_rule("sarule v1\ndim 1\nradius 1\ncase R[0] < 0 => -1\ndefault => 0\n")


def test_output_out_of_range_rejected():
    with pytest.raises(RuleParseError):
        parse_rule("sarule v1\ndim 1\nradius 1\ndefault => 2\n")


def test_missing_default_rejected():
    with pytest.raises(RuleParseError):
        parse_rule("sarule v1\ndim 1\nradius 1\ncase R[1] < 0 => -1\n")


def test_error_positions_are_stable():
    with pytest.raises(RuleParseError) as ei:
        parse_rule("sarule v1\ndim 1\nradius 1\ncase R[1] < => -1\ndefault => 0\n")
    assert (ei.value.line, ei.value.col) == (4, 11)


def test_parser_never_crashes_on_noise():
    rand = random.Random(99)
    for _ in range(3000):
        n = rand.randint(0, 60)
        text = "".join(chr(rand.randint(1, 255)) for _ in range(n))
        try:
            parse_rule(text)
        except RuleParseError:
            pass


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=120))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_rule(text)
    except RuleParseError:
        pass


def test_program_from_table_rule():
    (t,) = sample_table_rules(1, seed=8)
    prog = program_from_table_rule(t)
    f = prog.to_rule()
    for rng in all_ranges(1, 1):
        assert f.apply(rng) == t.apply(rng)
    # and the program survives the concrete syntax
    f2 = parse_rule(serialize_rule(prog)).to_rule()
    for rng in all_ranges(1, 1):
        assert f2.apply(rng) == t.apply(rng)


def test_reduction_program_matches_builder():
    # the reduction survives the concrete syntax, byte for byte and range by range
    S = min_ca()
    text = serialize_rule(reduction_program(S))
    assert serialize_rule(parse_rule(text)) == text
    f = build_reduction(S)
    g = parse_rule(text).to_rule()
    for rng in all_ranges(1, 2):
        assert f.apply(rng) == g.apply(rng)
