"""Host speed calibration.

On a shared 2-vCPU cloud host the interpreter's speed swings by up to 2x
over seconds and minutes (other tenants; process CPU time tracks wall
time, so the loss is not waiting).  A fixed pure-Python arithmetic loop, timed
right before and right after each job, measures the speed of the moment;
job times are reported scaled to a reference speed at which the loop
takes ``REF_S``:

    scaled = measured * REF_S / mean(loop before, loop after)

The raw times are printed beside the scaled ones.  Of the loops tried
(dictionary updates, a saturating-comparison kernel, plain arithmetic),
plain arithmetic tracked the slowdown of sandlab jobs best: repeating one
job for two minutes, scaling cut the spread of its time by a fifth to a
third on every workload, and the spread between whole runs far more.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.00025
INF = float("inf")


def _loop() -> int:
    s = 0
    for i in range(4000):
        s += i * i % 7
    return s


def calibrate() -> float:
    """Best of three timings of the fixed loop, in seconds."""
    best = INF
    for _ in range(3):
        t0 = perf_counter()
        _loop()
        best = min(best, perf_counter() - t0)
    return best


def factors(cals: list[float]) -> list[float]:
    """Multipliers taking each job's time to the reference speed, from the
    calibrations taken before and after it (``cals[2j]``, ``cals[2j+1]``)."""
    return [REF_S / ((a + b) / 2) for a, b in zip(cals[::2], cals[1::2])]


def timed_import() -> tuple[float, float]:
    """(raw, scaled) time to import sandlab in this fresh interpreter."""
    before = calibrate()
    t0 = perf_counter()
    import sandlab  # noqa: F401
    import sandlab.cli  # noqa: F401

    dt = perf_counter() - t0
    return dt, dt * factors([before, calibrate()])[0]
