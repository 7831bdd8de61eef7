import json
import time

import pytest

from sandlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_simulate_emits_jsonl(tmp_path, data_dir, capsys):
    out = tmp_path / "traj.jsonl"
    code, _, _ = run(
        capsys,
        "simulate",
        "--rule", str(data_dir / "collapse1.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--steps", "2",
        "--out", str(out),
    )
    assert code == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["step"] for r in recs] == [0, 1, 2]
    assert recs[0]["core"] == [2] and recs[2]["core"] == []
    assert recs[0]["left"] == "0"


def test_distance_output(data_dir, capsys, tmp_path):
    flip = tmp_path / "flip.cfg"
    flip.write_text(
        "sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin 4\nheights +inf\n"
    )
    code, out, _ = run(
        capsys, "distance", "--metric", "ground", str(data_dir / "zero.cfg"), str(flip)
    )
    assert code == 0 and out.strip() == "2^-4"
    code, out, _ = run(
        capsys, "distance", str(data_dir / "zero.cfg"), str(data_dir / "zero.cfg")
    )
    assert code == 0 and out.strip() == "0"


def _constant_cfg(path, height):
    path.write_text(
        f"sandcfg v1\ndim 1\nkind eventually-constant\nbg {height}\norigin 0\nheights\n"
    )
    return str(path)


@pytest.mark.parametrize("metric", ["ground", "top"])
def test_distance_of_huge_constants_exits_1_at_once(tmp_path, capsys, metric):
    # the exact answer 2^-(10^12) is over the budget; the closed form finds
    # the exponent without walking the radii up to it
    a = _constant_cfg(tmp_path / "a.cfg", 10**12)
    b = _constant_cfg(tmp_path / "b.cfg", 10**12 + 1)
    start = time.perf_counter()
    code, out, err = run(capsys, "distance", "--metric", metric, a, b)
    elapsed = time.perf_counter() - start
    if metric == "top":  # the centres differ at radius 0
        assert (code, out) == (0, "2^-0\n")
    else:
        assert code == 1 and out == ""
        assert err == f"error: distance: {10**12} enumerations exceed budget 10000000\n"
    assert elapsed < 0.5


def test_distance_over_budget_exits_1(tmp_path, capsys, monkeypatch):
    a = _constant_cfg(tmp_path / "a.cfg", 50)
    b = _constant_cfg(tmp_path / "b.cfg", 51)
    code, out, _ = run(capsys, "distance", a, b)
    assert (code, out) == (0, "2^-50\n")
    monkeypatch.setenv("SANDLAB_BUDGET", "10")
    code, out, err = run(capsys, "distance", a, b)
    assert code == 1 and out == ""
    assert err == "error: distance: 50 enumerations exceed budget 10\n"


def test_distance_work_follows_the_answer(tmp_path, capsys):
    # a core 10^10 sites out, or two periods whose common period is about
    # 10^8: the answer is found near 0 and nothing farther is read
    far = tmp_path / "far.cfg"
    far.write_text(
        "sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin 10000000000\nheights 1\n"
    )
    one = _constant_cfg(tmp_path / "one.cfg", 1)
    p, q = tmp_path / "p.cfg", tmp_path / "q.cfg"
    for path, n in ((p, 9973), (q, 9967)):
        cells = " ".join(["0"] * (n - 1) + [str(n % 7)])
        path.write_text(f"sandcfg v1\ndim 1\nkind periodic\nperiod {n}\nheights {cells}\n")
    start = time.perf_counter()
    assert run(capsys, "distance", str(far), one) == (0, "2^-0\n", "")
    # site -1 holds 9973 % 7 = 5 against 9967 % 7 = 6
    assert run(capsys, "distance", str(p), str(q)) == (0, "2^-5\n", "")
    assert time.perf_counter() - start < 0.5


def test_distance_far_only_difference_exits_1(tmp_path, capsys, monkeypatch):
    far = tmp_path / "far.cfg"
    far.write_text(
        "sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin 1000000000000\nheights 1\n"
    )
    zero = _constant_cfg(tmp_path / "zero.cfg", 0)
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    code, out, err = run(capsys, "distance", str(far), zero)
    assert (code, out) == (1, "")
    assert err == "error: distance: 1001 enumerations exceed budget 1000\n"


def test_encode_prints_bits(data_dir, capsys):
    code, out, _ = run(
        capsys,
        "encode",
        "--config", str(data_dir / "pile2.cfg"),
        "--hlo", "-1", "--hhi", "1", "--vlo", "1", "--vhi", "2",
    )
    assert code == 0
    assert out == "010\n010\n"


@pytest.mark.parametrize(
    "window",
    [("0", "-1", "1", "2"), ("3", "0", "1", "2"), ("-1", "1", "2", "1")],
    ids=["hlo=hhi+1", "hlo>hhi", "vlo>vhi"],
)
def test_encode_rejects_empty_windows(data_dir, capsys, window):
    hlo, hhi, vlo, vhi = window
    code, out, err = run(
        capsys,
        "encode",
        "--config", str(data_dir / "pile2.cfg"),
        "--hlo", hlo, "--hhi", hhi, "--vlo", vlo, "--vhi", vhi,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: the encoding window is empty")


def test_encode_over_budget_exits_1(data_dir, capsys, monkeypatch):
    # 101 columns x 10 rows: the cells are charged before the row is read
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    code, out, err = run(
        capsys,
        "encode",
        "--config", str(data_dir / "pile2.cfg"),
        "--hlo", "-50", "--hhi", "50", "--vlo", "0", "--vhi", "9",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: encoding: 1010 enumerations exceed budget 1000")
    assert "Traceback" not in err


def test_sa2ca_and_check_sa(tmp_path, data_dir, capsys):
    ca = tmp_path / "bridge.ca"
    code, _, _ = run(capsys, "sa2ca", "--rule", str(data_dir / "collapse1.rule"), "--out", str(ca))
    assert code == 0
    ext = tmp_path / "ext.rule"
    code, out, _ = run(capsys, "check-sa", "--ca", str(ca), "--extract", str(ext))
    assert code == 0 and "IS_SA" in out
    assert ext.read_text() == (data_dir / "collapse1.rule").read_text()


def test_check_sa_rejects_with_witness(tmp_path, capsys):
    ca = tmp_path / "const1.ca"
    ca.write_text(f"carule v1\ndim 2\nradius 1\nstates 2\ntable {'1' * 512}\n")
    code, out, _ = run(capsys, "check-sa", "--ca", str(ca))
    assert code == 1
    assert "NOT_SA" in out and "witness-tops" in out


def test_reduce_ca(tmp_path, data_dir, capsys):
    out_rule = tmp_path / "red.rule"
    code, _, _ = run(capsys, "reduce-ca", "--ca", str(data_dir / "min.ca"), "--out", str(out_rule))
    assert code == 0
    assert out_rule.read_text() == (data_dir / "minred.rule").read_text()


def test_reduce_ca_non_spreading(tmp_path, capsys):
    ca = tmp_path / "or.ca"
    ca.write_text("carule v1\ndim 1\nradius 1\nstates 2\ntable 01111111\n")
    code, _, err = run(capsys, "reduce-ca", "--ca", str(ca))
    assert code == 1 and "spreading" in err


def test_flatten_exit_codes(data_dir, capsys):
    code, out, _ = run(
        capsys,
        "flatten",
        "--rule", str(data_dir / "collapse1.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--budget", "100",
    )
    assert code == 0 and out.startswith("CONVERGED")
    code, out, _ = run(
        capsys,
        "flatten",
        "--rule", str(data_dir / "raise.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--budget", "5",
    )
    assert code == 1
    # a non-constant fixed point answers at once, whatever the budget
    start = time.perf_counter()
    code, out, _ = run(
        capsys,
        "flatten",
        "--rule", str(data_dir / "identity.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--budget", "1000000000",
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out.strip() == "NOT_CONVERGED"


def test_period_search_exit_codes(data_dir, capsys):
    code, out, _ = run(
        capsys, "period-search", "--rule", str(data_dir / "identity.rule"), "--max-sum", "2"
    )
    assert code == 0 and out.startswith("PERIODIC")
    code, out, _ = run(
        capsys, "period-search", "--rule", str(data_dir / "collapse1.rule"), "--max-sum", "2"
    )
    assert code == 1 and out.startswith("REFUTED")


def test_period_search_on_a_huge_radius_exits_1_at_once(tmp_path, capsys):
    # the exhaustive branch would enumerate 10^12-digit many neighborhoods;
    # its count is never built, and the first sampled step is over budget
    rule = tmp_path / "wide.rule"
    rule.write_text("sarule v1\ndim 1\nradius 100000000000\ndefault => 0\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "period-search", "--rule", str(rule), "--max-sum", "2")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("error: step: ") and "exceed budget" in err
    assert "Traceback" not in err


def test_render_golden(tmp_path, data_dir, capsys):
    traj = tmp_path / "traj.jsonl"
    run(
        capsys,
        "simulate",
        "--rule", str(data_dir / "collapse1.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--steps", "2",
        "--out", str(traj),
    )
    out = tmp_path / "frames.txt"
    code, _, _ = run(capsys, "render", "--traj", str(traj), "--format", "ascii", "--out", str(out))
    assert code == 0
    assert out.read_text() == (data_dir / "render_pile2.txt").read_text()


def test_render_svg_is_well_formed(tmp_path, data_dir, capsys):
    traj = tmp_path / "traj.jsonl"
    run(
        capsys,
        "simulate",
        "--rule", str(data_dir / "collapse1.rule"),
        "--config", str(data_dir / "pile2.cfg"),
        "--steps", "1",
        "--out", str(traj),
    )
    code, out, _ = run(capsys, "render", "--traj", str(traj), "--format", "svg", "--out", "-")
    assert code == 0
    import xml.etree.ElementTree as ET

    ET.fromstring(out)


@pytest.mark.parametrize("fmt", ["ascii", "svg"])
def test_render_over_budget_exits_1(tmp_path, capsys, monkeypatch, fmt):
    # a pile at index 10^5 widens each of the 2 frames to 200001 columns x 5 rows
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    cfg = tmp_path / "far.cfg"
    cfg.write_text("sandcfg v1\ndim 1\nkind eventually-constant\nbg 0\norigin 100000\nheights 2\n")
    rule = tmp_path / "id.rule"
    rule.write_text("sarule v1\ndim 1\nradius 1\ndefault => 0\n")
    traj = tmp_path / "traj.jsonl"
    code, _, _ = run(
        capsys, "simulate", "--rule", str(rule), "--config", str(cfg), "--steps", "1", "--out", str(traj)
    )
    assert code == 0
    code, out, err = run(capsys, "render", "--traj", str(traj), "--format", fmt, "--out", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: render: 2000010 enumerations exceed budget 1000")
    assert "Traceback" not in err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "no-such-command")[0] == 2
    bad = tmp_path / "bad.rule"
    bad.write_text("sarule v1\ndim 1\nradius 1\n")
    code, _, err = run(capsys, "period-search", "--rule", str(bad), "--max-sum", "1")
    assert code == 2 and "error" in err


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "period-search", "--rule", str(tmp_path / "nope"), "--max-sum", "1")
    assert code == 2


def test_simulate_over_step_budget_exits_1(tmp_path, data_dir, capsys, monkeypatch):
    # sandcfg files are 1-d, so the step is widened by the radius:
    # one pile at radius 16 updates 33 piles of 32 entries each
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    rule = tmp_path / "wide.rule"
    rule.write_text("sarule v1\ndim 1\nradius 16\ndefault => 0\n")
    code, _, err = run(
        capsys,
        "simulate",
        "--rule", str(rule),
        "--config", str(data_dir / "pile2.cfg"),
        "--steps", "1",
        "--out", str(tmp_path / "traj.jsonl"),
    )
    assert code == 1
    assert err.startswith("error: step: 1056 enumerations exceed budget 1000")
    assert "Traceback" not in err


@pytest.mark.parametrize("budget", ["abc", "-5", "1.5"])
def test_malformed_budget_exits_2(data_dir, capsys, monkeypatch, budget):
    monkeypatch.setenv("SANDLAB_BUDGET", budget)
    code, _, err = run(capsys, "check-sa", "--ca", str(data_dir / "bridge_collapse1.ca"))
    assert code == 2
    assert err.startswith("error: SANDLAB_BUDGET")
    assert "Traceback" not in err


def test_check_sa_over_invariance_budget_exits_1(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("SANDLAB_BUDGET", "1000")
    code, _, err = run(capsys, "check-sa", "--ca", str(data_dir / "bridge_collapse1.ca"))
    assert code == 1
    assert err.startswith("error: invariance check: 16807 enumerations exceed budget 1000")
