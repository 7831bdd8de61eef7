"""Self-test of the benchmark, sized to run in well under a minute.

    python3 sandbench/selftest.py

Checks that:
* ``run.py --trace 0`` and ``--trace 1`` print exactly the metrics named in
  BENCHMARK.json, each with its unit, and that per-layer counts repeat;
* a deliberately wrong bridge CA (flipped on one window) makes jobs fail,
  so the correctness checks catch errors, and a digest that differs from
  the recorded one counts as a failure;
* without the sandlab sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "sandbench/run.py", "--workload", "nilpotency-lab", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics(spec: list[dict], trace: int) -> dict:
    proc = bench_run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    printed = result["metrics"]
    names = {m["name"] for m in spec}
    assert set(printed) == names, sorted(set(printed) ^ names)
    for m in spec:
        got = printed[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
    return printed


def check_injected_error() -> None:
    """A bridge CA flipped on the flat-surface window must fail jobs."""
    sys.path.insert(0, HERE)
    import instrument
    import worker

    worker.load_sandlab()
    import sandlab.bridge
    from sandlab.ca import CaRule

    build = sandlab.bridge.build_ca_from_sa

    def flipped(f):
        g = build(f)
        rho = g.radius
        side = 2 * rho + 1
        # every column filled up to the center row: a flat surface
        surface = tuple(1 if v <= rho else 0 for _ in range(side) for v in range(side))

        def fn(flat):
            v = g.apply_flat(flat)
            return 1 - v if flat == surface else v

        return CaRule(g.dim, g.radius, g.states, fn, name=f"FLIPPED({g.name})")

    instrument.patch("build_ca_from_sa", lambda fn: flipped)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        worker.main(["--workload", "bridge-check", "--seed", "1", "--jobs", "8"])
    res = json.loads(out.getvalue().strip().splitlines()[-1])
    assert res["failed"] > 0, res
    print(f"injected flipped bridge CA: error_rate {res['failed'] / res['jobs']:.3f}")


def check_digest_mismatch() -> None:
    """A pass whose outputs differ from the recorded ones is a failure."""
    sys.path.insert(0, HERE)
    import run

    fake = {"workload": "simulate-mix", "jobs": 1, "failed": 0, "errors": [],
            "digest": "0" * 64, "digest_jobs": 1}
    with contextlib.redirect_stdout(io.StringIO()):
        correct, _, failed = run.report([fake], 1)
    assert not correct and failed == 1


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "sandbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "sandbench"))
    proc = bench_run(0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(spec["end_to_end"], 0)
    layers = check_metrics(spec["per_layer"], 1)
    assert layers["trace.unstable_counts"]["value"] == 0
    print("metrics printed with their units: ok")
    check_digest_mismatch()
    print("digest mismatch reported as a failure: ok")
    check_bare_directory()
    print("no sources, no result: ok")
    check_injected_error()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
