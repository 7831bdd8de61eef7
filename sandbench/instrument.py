"""Counters and spans around the calls into sandlab's public functions.

Functions are wrapped in every sandlab module namespace that holds them,
so calls across modules are caught as well as the benchmark's own.  The
per-cell helpers ``height_at``, ``beta`` and ``range_at`` are never
wrapped: they run about 10^5 times a second and their cost belongs to the
step that calls them.

Two modes:

* ``Work`` (tracing off) wraps only ``step`` and ``extend_columns`` with a
  clock pair and a work count read from the arguments, which is what the
  end-to-end rates divide.  It adds well under a microsecond to calls that
  take tens of microseconds or more.
* ``Tracer`` records one span (job, name, start, end, parent) per call,
  kept in memory and written out when the pass ends, plus exact counts.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from time import perf_counter

import model


def pile_updates(f, x) -> int:
    """Piles ``sa.step(f, x)`` recomputes, read from its input description:
    the light-cone core in dimension 1, the period when periodic, and the
    grown core box in dimension 2.  Constant configurations recompute none.
    """
    r = f.radius
    if x.kind.value == "periodic":
        return len(x.cells)
    if x.dim == 1:
        if not x.core:
            return 0 if x.left == x.right else 2 * r
        return len(x.core) + 2 * r
    if not x.core:
        return 0
    return (len(x.core) + 2 * r) * (len(x.core[0]) + 2 * r)


def sandlab_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "sandlab" or name.startswith("sandlab.")]


def patch(fn_name: str, make_wrapper, only=None) -> None:
    """Replace ``fn_name`` in every sandlab namespace holding the original.

    ``only`` restricts the replacement to the named module namespaces.
    """
    origin = None
    for m in sandlab_modules():
        if only is not None and m.__name__ not in only:
            continue
        fn = m.__dict__.get(fn_name)
        if fn is None or not callable(fn):
            continue
        if origin is None:
            origin = fn
            wrapper = make_wrapper(fn)
        if fn is origin:
            setattr(m, fn_name, wrapper)


class Work:
    """Untraced pass: time and work of ``sa.step`` and ``ca.extend_columns``."""

    def __init__(self):
        self.piles = 0
        self.step_s = 0.0
        self.ca_cells = 0
        self.extend_s = 0.0

    def install(self) -> None:
        def wrap_step(fn):
            def step(f, x):
                t0 = perf_counter()
                y = fn(f, x)
                self.step_s += perf_counter() - t0
                self.piles += pile_updates(f, x)
                return y

            return step

        def wrap_extend(fn):
            def extend_columns(g, cols, height):
                t0 = perf_counter()
                out = fn(g, cols, height)
                self.extend_s += perf_counter() - t0
                self.ca_cells += len(out[0]) * out[1]
                return out

            return extend_columns

        patch("step", wrap_step)
        patch("extend_columns", wrap_extend)


# span name -> (function, namespaces or None for all, counter)
def _counters():
    def piles(a, res, c):
        c["sa.pile_updates"] += pile_updates(a[0], a[1])

    def core_cells(a, res, c):
        if res.kind.value == "periodic":
            c["lattice.core_cells"] += len(res.cells)
        elif res.dim == 1:
            c["lattice.core_cells"] += len(res.core)
        elif res.core:
            c["lattice.core_cells"] += len(res.core) * len(res.core[0])

    def cylinders(a, res, c):
        if res:
            c["metric.cylinders_compared"] += res.denominator.bit_length()

    def zeta(a, res, c):
        c["metric.zeta_cells"] += res.width * res.height

    def invariance(a, res, c):
        c["bridge.invariance_windows"] += model.invariance_windows(
            a[0].radius, None if res is None else res.tops
        )

    def column(a, res, c):
        c["bridge.column_windows"] += model.column_windows(
            a[0].radius, None if res is None else res.tops
        )

    def flatten(a, res, c):
        c["nilpotency.flatten_steps"] += res.steps if res.steps is not None else (res.budget or 0)

    def parsed(a, res, c):
        c["dsl.rules_parsed"] += 1

    def written(a, res, c):
        c["files.bytes_written"] += len(res) + 1

    def read(a, res, c):
        c["files.bytes_read"] += len(a[0])

    def rendered(a, res, c):
        c["render.frames"] += len(a[0])
        c["render.bytes"] += len(res)

    canon_ns = ("sandlab.sa", "sandlab.nilpotency")
    return {
        "sa.step": ("step", None, piles),
        "sa.orbit": ("orbit", None, None),
        "sa.oracle_step_window": ("oracle_step_window", None, None),
        "lattice.line_config": ("line_config", canon_ns, core_cells),
        "lattice.grid_config": ("grid_config", canon_ns, core_cells),
        "lattice.periodic_config": ("periodic_config", canon_ns, core_cells),
        "lattice.constant": ("constant", canon_ns, core_cells),
        "metric.dist_ground": ("dist_ground", None, cylinders),
        "metric.dist_top": ("dist_top", None, cylinders),
        "metric.zeta_window": ("zeta_window", None, zeta),
        "bridge.build_ca_from_sa": ("build_ca_from_sa", None, None),
        "bridge.check_conjugacy_on": ("check_conjugacy_on", None, None),
        "bridge.decide_sa": ("decide_sa", None, None),
        "bridge.check_invariance": ("check_invariance", None, invariance),
        "bridge.check_column_preservation": ("check_column_preservation", None, column),
        "nilpotency.detect_flatten": ("detect_flatten", None, flatten),
        "nilpotency.build_reduction": ("build_reduction", None, None),
        "nilpotency.find_ultimate_period": ("find_ultimate_period", None, None),
        "dsl.parse_rule": ("parse_rule", None, parsed),
        "files.parse_config": ("parse_config", None, None),
        "files.parse_ca": ("parse_ca", None, None),
        "files.trajectory_record": ("trajectory_record", None, written),
        "files.read_trajectory": ("read_trajectory", None, read),
        "render.render_ascii": ("render_ascii", None, rendered),
        "render.render_svg": ("render_svg", None, rendered),
    }


class Tracer:
    """Spans around sandlab calls, kept in memory, plus exact counts."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []  # (job, name id, start, end, parent index)
        self.stack = [-1]
        self.job = -1
        self.counts = defaultdict(int)
        self.step_depth = 0

    def _span(self, name: str, fn, counter=None):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*a, **k):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                res = fn(*a, **k)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (self.job, nid, t0, t1, parent)
            if counter is not None:
                counter(a, res, counts)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import sandlab.bridge
        import sandlab.ca
        import sandlab.nilpotency
        import sandlab.sa

        for name, (fn_name, only, counter) in _counters().items():
            patch(fn_name, lambda fn, n=name, c=counter: self._span(n, fn, c), only)

        def extend_counter(a, res, c):
            cells = len(res[0]) * res[1]
            c["ca.cells_computed"] += cells

        extend = sandlab.ca.extend_columns
        spanned = self._span("ca.extend_columns", extend, extend_counter)
        counts = self.counts

        def extend_columns(g, cols, height):
            before = len(g._memo)
            out = spanned(g, cols, height)
            counts["ca.memo_misses"] += len(g._memo) - before
            return out

        patch("extend_columns", lambda fn: extend_columns)

        # the step span also gates which rule evaluations are counted
        step = sandlab.sa.step

        def counted_step(f, x):
            self.step_depth += 1
            try:
                return step(f, x)
            finally:
                self.step_depth -= 1

        patch("step", lambda fn: counted_step)

        func_rule = sandlab.sa.FuncRule
        init = func_rule.__init__

        def traced_init(rule, dim, radius, fn, name, memoize=False):
            def counted(rng):
                if self.step_depth:
                    counts["sa.rule_evals"] += 1
                return fn(rng)

            init(rule, dim, radius, counted, name, memoize)

        func_rule.__init__ = traced_init

        extract = sandlab.bridge.extract_sa_rule

        def extract_sa_rule(g):
            rule = extract(g)
            rule.fn = self._span("bridge.extract_sa_rule", rule.fn)
            return rule

        patch("extract_sa_rule", lambda fn: self._span("bridge.extract_sa_rule", extract_sa_rule))

        spreading = sandlab.nilpotency.SpreadingCa
        spreading.__init__ = self._span("nilpotency.SpreadingCa", spreading.__init__)

        def line_steps(a, res, c):
            c["nilpotency.ca_line_steps"] += 1

        spreading.step_line = self._span("nilpotency.step_line", spreading.step_line, line_steps)

    def self_times(self, scale: list[float]) -> dict[str, float]:
        """Self time per span name: duration minus the children's, each
        multiplied by ``scale[job]`` (see speed.py)."""
        child = [0.0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (job, nid, t0, t1, _) in enumerate(self.spans):
            out[self.names[nid]] += (t1 - t0 - child[k]) * scale[job]
        return dict(out)

    def span_counts(self) -> dict[str, int]:
        out = defaultdict(int)
        for _, nid, _, _, _ in self.spans:
            out[self.names[nid]] += 1
        return dict(out)

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("job,name,start_s,end_s,parent\n")
            for job, nid, t0, t1, parent in self.spans:
                fh.write(f"{job},{self.names[nid]},{t0:.9f},{t1:.9f},{parent}\n")
