"""Transition sums from the powers of the step symbol, graded by powers of z.

The z^n term of sum_n (A x + B + C x^-1)^n z^n is a Laurent polynomial in x
with support in x-degrees [-n, n].  The Laurent route reads only its x^0 and
x^{+-1} coefficients through z^N, and the x^d coefficient of the z^n term
reaches x-degree 0 or +-1 only after at least |d| - 1 further steps.  So the
z^n term is needed only in the degrees |d| <= min(n, N - n + 1); the stream
below keeps those and only the current term, O(N s^2) memory in all.

The stream holds the term by row slices: row i is one flat list, row i of
the x^-r .. x^r coefficients concatenated, so the x^d block of row i is the
slice [(d + r) s, (d + r + 1) s).  Left-multiplying by the step polynomial
then moves whole slices: each nonzero entry (i, t, v) of A, B or C adds v
times one contiguous slice of row t into row i, and each entry is reduced
once per step.  Nothing here forms a matrix product.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul

from . import matrices as cm
from .fields import Field
from .matseries import MatrixSeries
from .series import require_nonnegative


def _row_stream(field: Field, a, b, c, order: int):
    """Yield (r, rows) for n = 0..order: the z^n term by row slices, trimmed
    to the x-degrees -r .. r, r = min(n, order - n + 1).

    x^d of the next term is A (x^(d-1) part) + B (x^d part) + C (x^(d+1)
    part): step entry (i, t, v) at x-shift k in {1, 0, -1} adds v times the
    blocks of row t at degrees d - k to the blocks of row i at degrees d,
    over the d both terms hold, as one slice of each flat row.
    """
    s = len(a)
    for m in (a, b, c):
        cm.check_square(m, s)
    require_nonnegative(order)
    entries = [
        (k, i, t, v)
        for m, k in ((a, 1), (b, 0), (c, -1))
        for i, row in enumerate(m)
        for t, v in enumerate(row)
        if v
    ]
    red_all, rng = field.reduce_all, range(s)
    rows, r = [list(row) for row in cm.identity(field, s)], 0
    yield r, rows
    for n in range(1, order + 1):
        nr = min(n, order - n + 1)
        acc = [[0] * ((2 * nr + 1) * s) for _ in rng]
        for k, i, t, v in entries:
            # Degrees d with |d| <= nr and |d - k| <= r, as slices of both rows.
            lo, hi = max(-nr, k - r), min(nr, k + r)
            dst = slice((lo + nr) * s, (hi + nr + 1) * s)
            src = rows[t][(lo - k + r) * s : (hi - k + r + 1) * s]
            out = acc[i]
            out[dst] = map(add, out[dst], src if v == 1 else map(mul, repeat(v), src))
        rows, r = [red_all(row) for row in acc], nr
        yield r, rows


def _block(rows, s: int, at: int):
    """The s-by-s block of the flat rows that starts at offset ``at``."""
    return tuple(tuple(row[at : at + s]) for row in rows)


def trimmed_powers(field: Field, a, b, c, order: int):
    """Yield the z^n terms of the symbol powers for n = 0..order, trimmed.

    The z^n term is the tuple of matrix coefficients of x^-r .. x^r with
    r = min(n, order - n + 1), cut from the row-slice stream the Laurent
    route reads.
    """
    s = len(a)
    for r, rows in _row_stream(field, a, b, c, order):
        yield tuple(_block(rows, s, e * s) for e in range(2 * r + 1))


def accumulate(field: Field, a, b, c, order: int):
    """The transition sums (M_0, M_1, M_-1): x^0, x^1, x^-1 coefficients of
    sum_{n <= order} (A x + B + C x^-1)^n z^n, as matrix series, read
    straight off the stream's flat rows."""
    s = len(a)
    zero = cm.zeros(field, s)
    m0, m1, mm1 = [], [], []
    for r, rows in _row_stream(field, a, b, c, order):
        m0.append(_block(rows, s, r * s))
        m1.append(_block(rows, s, (r + 1) * s) if r else zero)
        mm1.append(_block(rows, s, (r - 1) * s) if r else zero)
    return tuple(MatrixSeries._trusted(field, s, tuple(m)) for m in (m0, m1, mm1))
