"""Growth sweep: time public functions at growing order n and block size s.

Each point is the median of ``REPEATS`` direct calls.  The reported value
is the least-squares slope of log(time) against log(n) or log(s); for the
walk oracle it is the time ratio per extra walk length.  The inputs are
fixed (they do not depend on the workload seed), so a change of slope
between two commits is a change of the code's asymptotics.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 3

ORDER_POINTS = {
    "engine.direct_route": (100, 200, 400),
    "engine.fixed_point_route": (32, 64, 128),
    "engine.laurent_route": (32, 64, 128),
    "walks.u_table": (40, 80, 160),
    "matseries.mul": (40, 80, 160),
    "matseries.inverse": (40, 80, 160),
    "annihilator.reconstruct": (60, 90, 135),
}
BLOCK_POINTS = {
    "engine.fixed_point_route": (2, 4, 6, 8),
    "engine.laurent_route": (2, 4, 6, 8),
    "engine.symbol_determinant": (4, 5, 6, 7),
}
BLOCK_SWEEP_ORDER = 24
WALK_LENGTHS = (7, 8, 9, 10)


def _time(fn):
    samples = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def _slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _loglog(points):
    return _slope([math.log(x) for x, _ in points], [math.log(t) for _, t in points])


def run(bg):
    """Return {metric: (value, points)} using the imported package ``bg``."""
    ex41 = bg.fixtures.example_spec("ex4.1")
    ex42 = bg.fixtures.example_spec("ex4.2")
    w41 = bg.block_reduce(ex41)
    qq = bg.QQ
    rng = random.Random(0)

    def rand_series(n, unit):
        coeffs = [[[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)] for _ in range(n + 1)]
        if unit:
            coeffs[0] = [[1, 0], [0, 1]]
        return bg.MatrixSeries(qq, 2, coeffs)

    def tridiagonal(s):
        spec = bg.BandedSpec(qq, 1, {-1: [1], 0: [1], 1: [1]}, [], block_size=s)
        return bg.block_reduce(spec)

    calls = {
        "engine.direct_route": lambda n: (lambda: bg.direct_route(ex42, n)),
        "engine.fixed_point_route": lambda n: (lambda: bg.fixed_point_route(w41, n)),
        "engine.laurent_route": lambda n: (lambda: bg.laurent_route(w41, n)),
        "walks.u_table": lambda n: (lambda: bg.u_table(w41, n)),
    }
    out = {}
    for name, make in calls.items():
        pts = [(n, _time(make(n))) for n in ORDER_POINTS[name]]
        out[f"{name}.exp_n"] = (_loglog(pts), pts)

    pts = []
    for n in ORDER_POINTS["matseries.mul"]:
        a, b = rand_series(n, False), rand_series(n, False)
        pts.append((n, _time(lambda: a * b)))
    out["matseries.mul.exp_n"] = (_loglog(pts), pts)
    pts = []
    for n in ORDER_POINTS["matseries.inverse"]:
        a = rand_series(n, True)
        pts.append((n, _time(a.inverse)))
    out["matseries.inverse.exp_n"] = (_loglog(pts), pts)
    pts = []
    for n in ORDER_POINTS["annihilator.reconstruct"]:
        g = bg.direct_route(ex41, n)
        pts.append((n, _time(lambda: bg.reconstruct(g, 3, 5))))
    out["annihilator.reconstruct.exp_n"] = (_loglog(pts), pts)

    block_calls = {
        "engine.fixed_point_route": lambda w: bg.fixed_point_route(w, BLOCK_SWEEP_ORDER),
        "engine.laurent_route": lambda w: bg.laurent_route(w, BLOCK_SWEEP_ORDER),
        "engine.symbol_determinant": lambda w: bg.symbol_determinant(w, Fraction(1, 3)),
    }
    for name, points in BLOCK_POINTS.items():
        pts = []
        for s in points:
            w = tridiagonal(s)
            pts.append((s, _time(lambda: block_calls[name](w))))
        out[f"{name}.exp_s"] = (_loglog(pts), pts)

    pts = [(length, _time(lambda: bg.class_sums(w41, length))) for length in WALK_LENGTHS]
    slope = _slope([x for x, _ in pts], [math.log(t) for _, t in pts])
    out["walks.class_sums.growth_L"] = (math.exp(slope), pts)
    return out
