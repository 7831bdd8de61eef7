"""One pass of one workload, in a process of its own.

    python3 sandbench/worker.py --workload NAME --seed N --seconds S
                                [--jobs N] [--trace] [--spans PATH]

A single closed-loop client: each job is issued when the previous one has
finished and been checked.  Without ``--jobs`` the pass runs until the
timed job time reaches ``--seconds`` and at least MIN_JOBS jobs ran.  The
last line of standard output is one JSON object describing the pass.
Run from the root of a checkout; sandlab is imported from ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# every pass covers these jobs, so their outputs can be digested and
# their per-layer counts compared across runs
MIN_JOBS = 200

LAYERS = ("sa", "lattice", "metric", "ca", "bridge", "nilpotency", "dsl", "files", "render")


def load_sandlab():
    sys.path.insert(0, SRC)
    import sandlab
    import sandlab.bridge
    import sandlab.ca
    import sandlab.dsl
    import sandlab.files
    import sandlab.lattice
    import sandlab.metric
    import sandlab.nilpotency
    import sandlab.render
    import sandlab.sa

    if not os.path.abspath(sandlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sandlab was imported from {sandlab.__file__}, not from {SRC}")
    return SimpleNamespace(
        dsl=sandlab.dsl, files=sandlab.files, lattice=sandlab.lattice, sa=sandlab.sa,
        metric=sandlab.metric, ca=sandlab.ca, bridge=sandlab.bridge,
        nilpotency=sandlab.nilpotency, render=sandlab.render,
    )


def layer_metrics(tracer, scale: list[float], job_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and the exact counts among them.  Times are at the
    reference host speed: ``scale[i]`` is job i's factor, ``job_s`` the
    scaled total job time."""
    self_s = tracer.self_times(scale)
    calls = tracer.span_counts()
    c = tracer.counts

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    canon = [k for k in calls if k.startswith("lattice.")]
    counts = {
        "sa.step_calls": n("sa.step"),
        "sa.pile_updates": c["sa.pile_updates"],
        "sa.rule_evals": c["sa.rule_evals"],
        "sa.oracle_calls": n("sa.oracle_step_window"),
        "lattice.canon_calls": n(*canon),
        "lattice.core_cells": c["lattice.core_cells"],
        "metric.dist_calls": n("metric.dist_ground", "metric.dist_top"),
        "metric.cylinders_compared": c["metric.cylinders_compared"],
        "metric.zeta_calls": n("metric.zeta_window"),
        "metric.zeta_cells": c["metric.zeta_cells"],
        "ca.extend_calls": n("ca.extend_columns"),
        "ca.cells_computed": c["ca.cells_computed"],
        "ca.memo_misses": c["ca.memo_misses"],
        "bridge.invariance_windows": c["bridge.invariance_windows"],
        "bridge.column_windows": c["bridge.column_windows"],
        "nilpotency.flatten_calls": n("nilpotency.detect_flatten"),
        "nilpotency.flatten_steps": c["nilpotency.flatten_steps"],
        "nilpotency.ca_line_steps": c["nilpotency.ca_line_steps"],
        "dsl.rules_parsed": c["dsl.rules_parsed"],
        "files.bytes_written": c["files.bytes_written"],
        "files.bytes_read": c["files.bytes_read"],
        "render.frames": c["render.frames"],
        "render.bytes": c["render.bytes"],
    }
    piles, cells = counts["sa.pile_updates"], counts["ca.cells_computed"]
    metrics = dict(counts)
    metrics.update({
        "sa.step_self_s": s("sa.step"),
        "sa.rule_memo_hit_ratio": 1 - counts["sa.rule_evals"] / piles if piles else 0.0,
        "lattice.canon_s": s(*canon),
        "metric.dist_s": s("metric.dist_ground", "metric.dist_top"),
        "metric.zeta_s": s("metric.zeta_window"),
        "ca.extend_s": s("ca.extend_columns"),
        "ca.memo_hit_ratio": 1 - counts["ca.memo_misses"] / cells if cells else 0.0,
        "bridge.build_s": s("bridge.build_ca_from_sa"),
        "bridge.conjugacy_s": s("bridge.check_conjugacy_on"),
        "bridge.invariance_s": s("bridge.check_invariance"),
        "bridge.column_s": s("bridge.check_column_preservation"),
        "bridge.extract_s": s("bridge.extract_sa_rule"),
        "nilpotency.flatten_s": s("nilpotency.detect_flatten"),
        "nilpotency.reduction_build_s": s("nilpotency.SpreadingCa", "nilpotency.build_reduction"),
        "nilpotency.period_s": s("nilpotency.find_ultimate_period"),
        "dsl.parse_s": s("dsl.parse_rule"),
        "files.parse_s": s("files.parse_config", "files.parse_ca"),
        "files.write_s": s("files.trajectory_record"),
        "files.read_s": s("files.read_trajectory"),
        "render.s": s("render.render_ascii", "render.render_svg"),
        "trace.spans": len(tracer.spans),
    })
    spanned = 0.0
    for layer in LAYERS:
        t = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        spanned += t
        metrics[f"share.{layer}"] = t / job_s
    metrics["share.other"] = max(0.0, job_s - spanned) / job_s
    return metrics, counts


def p50_ms(latencies: list[float]) -> float:
    return 1000 * statistics.median(latencies)


def p95_ms(latencies: list[float]) -> float:
    if len(latencies) < 20:
        return 1000 * max(latencies)
    return 1000 * statistics.quantiles(latencies, n=20)[18]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    api = load_sandlab()
    sys.path.insert(0, HERE)
    import instrument
    import speed
    from workloads import WORKLOADS, Context

    make = WORKLOADS[args.workload]
    inst = instrument.Tracer() if args.trace else instrument.Work()
    inst.install()
    ctx = Context()
    latencies: list[float] = []
    cals: list[float] = []  # calibration loop times, before and after each job
    work: list[tuple] = []  # per job: step, extend_columns and decider time
    errors: list[str] = []
    failed = 0
    digest = hashlib.sha256()
    busy = 0.0
    i = 0
    while True:
        if args.jobs is not None:
            if i >= args.jobs:
                break
        elif i >= MIN_JOBS and busy >= args.seconds:
            break
        job = make(args.seed, i)
        if args.trace:
            inst.job = i
        else:
            work0 = (inst.step_s, inst.extend_s, ctx.decider_s)
        cals.append(speed.calibrate())
        t0 = perf_counter()
        try:
            out = job.run(api, ctx)
            err = None
        except Exception as e:  # a failed job is counted, never dropped
            err = f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        cals.append(speed.calibrate())
        if args.trace:
            inst.job = -1
        else:
            work.append(tuple(b - a for a, b in zip(work0, (inst.step_s, inst.extend_s, ctx.decider_s))))
        busy += dt
        latencies.append(dt)
        if err is None:
            try:
                ok, text = job.check(out, ctx)
            except Exception as e:
                ok, text = False, f"check raised {type(e).__name__}: {e}"
        else:
            ok, text = False, err
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(f"job {i} ({type(job).__name__}): {text}")
        if i < MIN_JOBS:
            digest.update(f"{i}\n{text if ok else 'FAILED'}\n".encode())
        i += 1

    factors = speed.factors(cals)
    scaled = [dt * k for dt, k in zip(latencies, factors)]
    res = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": i,
        "failed": failed,
        "errors": errors,
        "busy_s": busy,
        "raw": {"jobs_per_s": i / busy, "p50_ms": p50_ms(latencies), "p95_ms": p95_ms(latencies)},
        "jobs_per_s": i / sum(scaled),
        "p50_ms": p50_ms(scaled),
        "p95_ms": p95_ms(scaled),
        "digest": digest.hexdigest(),
        "digest_jobs": min(i, MIN_JOBS),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decider_windows": ctx.decider_windows,
    }
    if args.trace:
        res["layers"], res["counts"] = layer_metrics(inst, factors, sum(scaled))
        if args.spans:
            inst.write(args.spans)
    else:
        res.update(pile_updates=inst.piles, ca_cells=inst.ca_cells)
        res.update(zip(("step_s", "extend_s", "decider_s"),
                       (sum(w[n] * k for w, k in zip(work, factors)) for n in range(3))))
        res["raw"]["pile_updates_per_s"] = inst.piles / inst.step_s if inst.step_s else 0.0
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
