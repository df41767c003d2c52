"""Machine-speed reference: fixed stdlib kernels timed next to every job.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over seconds as neighbours come and go; one fixed job measured a
hundred times in one process takes anywhere from 0.45 to 0.95 s.  Wall
time alone then measures the host as much as the program.  So every timed
job (and every set-up) is bracketed by a *reference measurement*: three
small kernels that stress the interpreter the way the package does -- a
tight integer loop, a dense matrix power over ``Fraction`` and one modulo a
61-bit prime.  A job's time is reported in *reference seconds*:

    ref_s = wall_s * REF_S / ((speed_before + speed_after) / 2)

where ``speed_*`` is the geometric mean of the three kernel times measured
just before and just after the job.  On a quiet host the kernels take about
``REF_S`` and a reference second is a wall second; when the host slows
everything down, kernels and job slow down together and the ratio holds.
The kernels import nothing from ``bandedgf``, so a change to the package
moves the job time and never the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

# Geometric-mean kernel time that defines one reference second: what the
# kernels take on a quiet host (a 2-core Xeon VM), so that there a reference
# second is about a wall second.
REF_S = 0.014

_PRIME = 2**61 - 1
_FRACTIONS = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + 2 * j) % 3) for j in range(5)]
              for i in range(5)]
_RESIDUES = [[(i * 31 + j * 17) % _PRIME for j in range(6)] for i in range(6)]


def _integer_loop():
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return s


def _fraction_power():
    m = _FRACTIONS
    for _ in range(6):
        a = m
        for _ in range(6):
            a = [[sum((a[i][k] * m[k][j] for k in range(5)), Fraction(0)) for j in range(5)]
                 for i in range(5)]
    return a


def _modular_power():
    m = _RESIDUES
    a = m
    for _ in range(270):
        a = [[sum(a[i][k] * m[k][j] for k in range(6)) % _PRIME for j in range(6)]
             for i in range(6)]
    return a


KERNELS = (_integer_loop, _fraction_power, _modular_power)


def speed() -> float:
    """Geometric mean of the kernels' wall times, in seconds (lower is faster)."""
    logs = 0.0
    for kernel in KERNELS:
        t0 = perf_counter()
        kernel()
        logs += math.log(perf_counter() - t0)
    return math.exp(logs / len(KERNELS))


def to_ref(wall_s: float, before: float, after: float) -> float:
    """Wall seconds measured between two ``speed()`` samples, in reference seconds."""
    return wall_s * REF_S / ((before + after) / 2)
