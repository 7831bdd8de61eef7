"""The sandlab benchmark.

    python3 sandbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: sandlab is imported from ``src`` (there is
nothing to build).  Workloads are ``simulate-mix``, ``bridge-check`` and
``nilpotency-lab`` (see workloads.py and BENCHMARK.json for why each).

``--trace 0`` measures ``setup_s`` (the median of several fresh
interpreters importing sandlab), then one pass of the workload in its own
process for at least ``--seconds`` of job time and at least 200 jobs, and
prints the end-to-end metrics.  ``--trace 1`` runs the first 200 jobs
three times in three processes: untraced, traced (spans written to
``sandbench/out``), and traced again to check that every per-layer count
repeats exactly; it prints the per-layer metrics and the tracing overhead.

Times and rates are scaled to a reference host speed measured around each
job (speed.py), because the shared host's speed swings by up to 2x; the
unscaled figures are printed on the ``raw`` line.

Every job's output is checked outside the timed region; a failure counts
in ``failed`` and is never dropped.  The outputs of the first 200 jobs are
digested; for the seed recorded in expected.json the digest must match,
so a change that alters any result shows as a failure.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("simulate-mix", "bridge-check", "nilpotency-lab")

# the default of sandlab.budget, pinned so that the choice between
# exhaustive and sampled checks never depends on the caller's environment
SANDLAB_BUDGET = "10000000"
# fresh-interpreter imports timed before and after the pass; the host's
# speed drifts over seconds, so samples from both ends steady the median
SETUP_SAMPLES = (6, 5)
SETUP_CODE = f"import sys; sys.path.insert(0, {HERE!r}); import speed; print(*speed.timed_import())"
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["SANDLAB_BUDGET"] = SANDLAB_BUDGET
    return env


def spawn(argv: list[str], timeout: float) -> str:
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[:2]} timed out after {timeout}s") from e
    if proc.returncode != 0:
        raise BenchError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(n: int) -> list[tuple[float, float]]:
    """(raw, scaled) import times of sandlab in ``n`` fresh interpreters."""
    out = []
    for _ in range(n):
        raw, scaled = spawn(["-c", SETUP_CODE], 60).split()[-2:]
        out.append((float(raw), float(scaled)))
    return out


def run_pass(workload: str, seed: int, seconds: float = 0, jobs=None, trace=False, spans=None) -> dict:
    argv = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", spans]
    return json.loads(spawn(argv, PASS_TIMEOUT_S).strip().splitlines()[-1])


def expected_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        exp = json.load(fh)
    return exp["digests"].get(workload) if exp["seed"] == seed else None


def report(passes: list[dict], seed: int) -> tuple[bool, int, int]:
    """Print each pass's failures and digest; (correct, attempted, failed)."""
    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    for p in passes:
        for e in p["errors"]:
            print(f"FAILED {p['workload']}: {e}")
    digests = {p["digest"] for p in passes}
    want = expected_digest(passes[0]["workload"], seed)
    print(f"digest {passes[0]['workload']} seed {seed} first {passes[0]['digest_jobs']} jobs: "
          f"{' '.join(sorted(digests))}")
    if len(digests) > 1 or (want is not None and digests != {want}):
        print(f"FAILED digest mismatch: expected {want or 'one digest across passes'}")
        correct = False
        failed += 1
    print(f"error_rate {failed / attempted:.6f} ({failed}/{attempted})")
    return correct, attempted, failed


def untraced(args) -> dict:
    spawn(["-c", SETUP_CODE], 60)  # compiles the byte code, not timed
    before = setup_samples(SETUP_SAMPLES[0])
    p = run_pass(args.workload, args.seed, seconds=args.seconds)
    setup = before + setup_samples(SETUP_SAMPLES[1])
    correct, attempted, failed = report([p], args.seed)
    raw = dict(p["raw"], setup_s=statistics.median(s[0] for s in setup))
    print(f"{p['jobs']} jobs in {p['busy_s']:.3f}s of job time; latency samples {p['jobs']}")
    print("raw (unscaled) " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    metrics = {
        "setup_s": (statistics.median(s[1] for s in setup), "s"),
        "jobs_per_s": (p["jobs_per_s"], "1/s"),
        "job_p50_ms": (p["p50_ms"], "ms"),
        "job_p95_ms": (p["p95_ms"], "ms"),
        "pile_updates_per_s": (p["pile_updates"] / p["step_s"], "1/s"),
        "peak_rss_mb": (p["peak_rss_mb"], "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args) -> dict:
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    plain = run_pass(args.workload, args.seed, jobs=200)
    first = run_pass(args.workload, args.seed, jobs=200, trace=True, spans=spans)
    second = run_pass(args.workload, args.seed, jobs=200, trace=True)
    correct, attempted, failed = report([plain, first, second], args.seed)
    unstable = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"][k])
    for k in unstable:
        print(f"UNSTABLE count {k}: {first['counts'][k]} then {second['counts'][k]}")
    overhead = plain["jobs_per_s"] / first["jobs_per_s"]
    print(f"tracing overhead {args.workload}: {plain['jobs_per_s']:.2f} jobs/s untraced, "
          f"{first['jobs_per_s']:.2f} traced ({overhead:.3f}x); spans in {os.path.relpath(spans, ROOT)}")
    layers = first["layers"]
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    metrics.update({
        "trace.jobs_per_s_untraced": (plain["jobs_per_s"], "1/s"),
        "trace.jobs_per_s_traced": (first["jobs_per_s"], "1/s"),
        "trace.overhead": (overhead, "ratio"),
        "trace.unstable_counts": (len(unstable), "count"),
        "untraced.ca_cells_per_s": (plain["ca_cells"] / plain["extend_s"] if plain["extend_s"] else 0.0, "1/s"),
        "untraced.decider_windows_per_s": (
            plain["decider_windows"] / plain["decider_s"] if plain["decider_s"] else 0.0, "1/s"),
        "untraced.error_rate": (plain["failed"] / plain["jobs"], "ratio"),
    })
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name.startswith("share."):
        return "ratio"
    if name.endswith("_s") or name == "render.s":
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sandlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sandlab", "__init__.py")):
        print(f"error: no sandlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = traced(args) if args.trace else untraced(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
