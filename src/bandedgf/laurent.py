"""Transition sums from the powers of the step symbol, graded by powers of z.

The z^n term of sum_n (A x + B + C x^-1)^n z^n is a Laurent polynomial in x
with support in x-degrees [-n, n].  The Laurent route reads only its x^0 and
x^{+-1} coefficients through z^N, and the x^d coefficient of the z^n term
reaches x-degree 0 or +-1 only after at least |d| - 1 further steps.  So the
z^n term is needed only in the degrees |d| <= min(n, N - n + 1); the stream
below keeps those and only the current term, O(N s^2) memory in all.
"""

from __future__ import annotations

from . import matrices as cm
from .fields import Field
from .matseries import MatrixSeries


def trimmed_powers(field: Field, a, b, c, order: int):
    """Yield the z^n terms of the symbol powers for n = 0..order, trimmed.

    The z^n term is the tuple of matrix coefficients of x^-r .. x^r with
    r = min(n, order - n + 1).  Each step multiplies the step polynomial on
    the left: x^d picks up A (x^(d-1) part) + B (x^d part) + C (x^(d+1) part),
    one sum of products per entry.
    """
    s = len(a)
    for m in (a, b, c):
        cm.check_square(m, s)
    if order < 0:
        raise ValueError("order must be nonnegative")
    sop = cm.sum_of_products
    term, r = (cm.identity(field, s),), 0
    yield term
    for n in range(1, order + 1):
        nr = min(n, order - n + 1)
        term = tuple(
            sop(field, [
                (step, term[e + r])
                for step, e in ((a, d - 1), (b, d), (c, d + 1))
                if -r <= e <= r
            ])
            for d in range(-nr, nr + 1)
        )
        r = nr
        yield term


def accumulate(field: Field, a, b, c, order: int):
    """The transition sums (M_0, M_1, M_-1): x^0, x^1, x^-1 coefficients of
    sum_{n <= order} (A x + B + C x^-1)^n z^n, as matrix series."""
    s = len(a)
    zero = cm.zeros(field, s)
    m0, m1, mm1 = [], [], []
    for term in trimmed_powers(field, a, b, c, order):
        r = len(term) // 2
        m0.append(term[r])
        m1.append(term[r + 1] if r else zero)
        mm1.append(term[r - 1] if r else zero)
    return (
        MatrixSeries(field, s, m0),
        MatrixSeries(field, s, m1),
        MatrixSeries(field, s, mm1),
    )
