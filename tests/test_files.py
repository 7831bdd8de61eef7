import pytest

from sandlab.dsl import parse_rule, serialize_rule
from sandlab.files import (
    FormatError,
    parse_ca,
    parse_config,
    parse_trajectory_record,
    read_trajectory,
    serialize_ca,
    serialize_config,
    trajectory_record,
)
from sandlab.heights import PLUS_INF
from sandlab.lattice import constant, line_config, periodic_config
from sandlab.sa import OrbitRecord


def _golden(data_dir, suffix):
    return sorted(p for p in data_dir.iterdir() if p.suffix == suffix)


def test_rule_corpus_round_trips(data_dir):
    files = _golden(data_dir, ".rule")
    assert len(files) >= 10
    for path in files:
        text = path.read_text()
        assert serialize_rule(parse_rule(text)) == text, path.name


def test_config_corpus_round_trips(data_dir):
    files = _golden(data_dir, ".cfg")
    assert len(files) >= 10
    for path in files:
        text = path.read_text()
        assert serialize_config(parse_config(text)) == text, path.name


def test_config_parse_canonicalizes():
    text = "sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin -1\nheights 0 0 4\n"
    x = parse_config(text)
    assert x == line_config([4], 1, 0, 0)
    assert serialize_config(parse_config(serialize_config(x))) == serialize_config(x)


def test_config_left_right_and_infinities():
    text = (
        "sandcfg v1\ndim 1\nkind eventually-constant\nleft -inf\nright 2\n"
        "origin 0\nheights 3 +inf -2\n"
    )
    x = parse_config(text)
    assert x.left == -PLUS_INF and x.core[1] == PLUS_INF


def test_config_constant_zero():
    x = parse_config("sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin 0\nheights\n")
    assert x == constant(0)


def test_config_periodic():
    x = parse_config("sandcfg v1\ndim 1\nkind periodic\nperiod 2\nheights 1 2\n")
    assert x == periodic_config([1, 2])


def test_config_errors_are_positioned():
    with pytest.raises(FormatError) as ei:
        parse_config("sandcfg v1\ndim 1\nkind periodic\nperiod x\nheights 1\n")
    assert ei.value.line == 4
    with pytest.raises(FormatError):
        parse_config("nope\n")
    with pytest.raises(FormatError):
        parse_config("sandcfg v1\ndim 2\nkind eventually-constant\nbg 0\norigin 0\nheights\n")


def test_ca_table_round_trip(data_dir):
    text = (data_dir / "min.ca").read_text()
    g = parse_ca(text)
    assert (g.dim, g.radius, g.states) == (1, 1, 2)
    assert serialize_ca(g) == text


def test_ca_bridge_round_trip(data_dir):
    text = (data_dir / "bridge_collapse1.ca").read_text()
    g = parse_ca(text)
    assert (g.dim, g.radius, g.states) == (2, 2, 2)
    assert serialize_ca(g) == text


def test_ca_bad_header():
    with pytest.raises(FormatError):
        parse_ca("carule v1\ndim 1\nradius 1\nstates 2\ntable 012\n")


@pytest.mark.parametrize(
    "dim, radius, states, line, message",
    [
        (0, 1, 2, 2, "dim must be in [1, 2], got 0"),
        (3, 1, 2, 2, "dim must be in [1, 2], got 3"),
        (1, -1, 2, 3, "radius must be >= 0, got -1"),
        (1, 1, 0, 4, "states must be >= 1, got 0"),
        (2, 300, 2, 5, "dense table needs 2**361201 entries, got 2"),
    ],
)
def test_ca_header_ranges(dim, radius, states, line, message):
    with pytest.raises(FormatError) as ei:
        parse_ca(f"carule v1\ndim {dim}\nradius {radius}\nstates {states}\ntable 01\n")
    assert (ei.value.line, ei.value.reason) == (line, message)


def test_trajectory_record_round_trip():
    rec = OrbitRecord(3, line_config([2, PLUS_INF], -1, 0, 0))
    line = trajectory_record(rec)
    assert '"left":"0"' in line and '"+inf"' in line
    back = parse_trajectory_record(line)
    assert back.step == 3 and back.config == rec.config


def test_trajectory_periodic_record():
    rec = OrbitRecord(0, periodic_config([1, 0]))
    back = parse_trajectory_record(trajectory_record(rec))
    assert back.config == periodic_config([1, 0])


def test_trajectory_steps_must_increase():
    rec = trajectory_record(OrbitRecord(1, constant(0)))
    with pytest.raises(FormatError):
        read_trajectory(rec + "\n" + rec)


@pytest.mark.parametrize(
    "line",
    [
        '{"step":0,"origin":0,"left":"0","right":"0","core":[1.5]}',
        '{"step":0,"origin":0.5,"left":"0","right":"0","core":[1]}',
        '{"step":"1","origin":0,"left":"0","right":"0","core":[1]}',
    ],
)
def test_trajectory_reader_is_strict(line):
    good = trajectory_record(OrbitRecord(0, line_config([1], 0, 0, 0)))
    with pytest.raises(FormatError):
        parse_trajectory_record(line)
    with pytest.raises(FormatError):
        read_trajectory(good + "\n" + line)
