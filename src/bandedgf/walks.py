"""Matrix-weighted Motzkin walks: the walk-sum oracle and the walk table.

A walk is a tuple of integer heights with consecutive differences in
{-1, 0, 1}.  Each step carries an s-by-s weight: A for a down step, B for a
level step, C for an up step; the weight of a walk is the ordered product of
its step weights.  The starred weight replaces B by D on level steps taken at
height 0.  :func:`class_sums` is the oracle the routes are checked against:
one forward pass over heights per walk class, polynomial in the length,
written from these definitions alone.  The oracle and the walk table
multiply through the step weights' nonzero entries.  The table of
standard-walk sums (:func:`u_table`) keeps every s-by-s block u_k^(n) for the
identity suite, which reads whole blocks, and computes from them the
binomially weighted ladder G*_r (:meth:`UTable.binomial_sums`).
"""

from __future__ import annotations

from functools import cached_property
from math import comb
from operator import mul

from . import matrices as cm
from .banded import BlockWeights
from .matseries import MatrixSeries
from .series import require_nonnegative


class WalkSums:
    """Every class of walk sums needed by the identity suite.

    All walks start at height 0.  ``m0``/``m1``/``mm1`` are the unrestricted
    sums finishing at 0, -1 and +1; ``gw``/``gwstar`` the standard closed
    sums under the plain and starred weights; ``hw``/``hwstar`` their
    primitive-standard parts; ``j0`` the primitive closed sum (which may dip
    below 0).  ``by_finish[n][k]`` is the unrestricted sum over walks of
    length n finishing at k, for every k in [-n, n].

    ``by_finish``, ``m0``, ``m1`` and ``mm1`` come from the one unrestricted
    pass made on construction.  ``gw``, ``gwstar``, ``hw``, ``hwstar`` and
    ``j0`` each make their own pass on first read, so a caller pays only for
    the classes it reads.  Every class is a plain attribute once computed and
    may be reassigned.
    """

    def __init__(self, w: BlockWeights, length: int):
        self._w, self._length = w, length
        self.by_finish = tuple(_class_pass(w, length, w.b))
        self.m0, self.m1, self.mm1 = (self._at(self.by_finish, k) for k in (0, -1, 1))

    def _at(self, rows, k=0):
        field, s = self._w.field, self._w.s
        zero = cm.zeros(field, s)
        return MatrixSeries(field, s, [row.get(k, zero) for row in rows])

    def _closed(self, level0, **walk_class):
        return self._at(_class_pass(self._w, self._length, level0, **walk_class))

    @cached_property
    def gw(self):
        return self._closed(self._w.b, standard=True)

    @cached_property
    def gwstar(self):
        return self._closed(self._w.d, standard=True)

    @cached_property
    def hw(self):
        return self._closed(self._w.b, standard=True, primitive=True)

    @cached_property
    def hwstar(self):
        return self._closed(self._w.d, standard=True, primitive=True)

    @cached_property
    def j0(self):
        return self._closed(self._w.b, primitive=True)


def _nonzeros(m):
    """The nonzero entries (row, column, value) of a step weight, row by row."""
    return [(t, j, v) for t, row in enumerate(m) for j, v in enumerate(row) if v]


def _add_right_product(out, x, entries):
    """out += x u in raw arithmetic, u given by its nonzero entries (t, j, v)."""
    for xi, oi in zip(x, out):
        for t, j, v in entries:
            oi[j] += xi[t] * v


def _add_left_product(out, entries, x):
    """out += u x in raw arithmetic, u given by its nonzero entries (i, t, v)."""
    for i, t, v in entries:
        oi, xt = out[i], x[t]
        for j, a in enumerate(xt):
            oi[j] += v * a


def _reduced(field, out):
    red = field.reduce
    return tuple(tuple(map(red, row)) for row in out)


def _class_pass(w, length, level0, standard=False, primitive=False):
    """Sums over one class of walks from 0, by length and finishing height.

    Row n maps each height h to the sum of the weights of the class's walks
    of length n that finish at h; each step multiplies its weight on the
    right, in walk order, through the weight's nonzero entries, and each
    entry is reduced once per step.  A standard walk stays at or above 0, a
    primitive one stops at its first return to 0 (and has positive length),
    and a level step at 0 weighs ``level0`` (B plain, D starred).  Only the
    unrestricted class is read away from 0; every other class drops a walk
    at |h| > length - n, which can no longer return to 0.  A height within
    reach gets its block even when every step into it weighs zero.
    """
    field, s = w.field, w.s
    down, level, up, floor = (_nonzeros(m) for m in (w.a, w.b, w.c, level0))
    live = {0: cm.identity(field, s)}
    rows = [{} if primitive else live]
    for n in range(1, length + 1):
        top = length - n if standard or primitive else n
        bottom = 0 if standard else -top
        raw = {}
        for h, acc in live.items():
            for nh, entries in ((h - 1, down), (h, floor if h == 0 else level), (h + 1, up)):
                if bottom <= nh <= top:
                    if nh not in raw:
                        raw[nh] = [[0] * s for _ in range(s)]
                    _add_right_product(raw[nh], acc, entries)
        row = {h: _reduced(field, out) for h, out in raw.items()}
        rows.append(row)
        live = {h: v for h, v in row.items() if h} if primitive else row
    return rows


def class_sums(w: BlockWeights, length: int) -> WalkSums:
    """All WalkSums classes to the given length, by one pass per walk class
    (the unrestricted pass now, each other pass when its class is first read).

    Heights stay in [-n, n] at length n and each step touches only the
    nonzero entries of its weight, so each pass costs O(length^2 · s · nnz)
    time, nnz the number of nonzero entries of A, B and C (or D);
    ``by_finish`` keeps every endpoint block, O(length^2 s^2) memory.
    """
    require_nonnegative(length)
    return WalkSums(w, length)


class UTable:
    """Sums of starred weights over standard walks from k-1 down to 0.

    ``value(k, n)`` is the s-by-s sum over standard walks of length n from
    k-1 to 0; it vanishes for k > n + 1 because a walk cannot descend faster
    than one level per step, so row n stores only k = 1..n+1.  Filled by the
    linear recurrence

        u_1^{n+1} = D u_1^n + C u_2^n
        u_k^{n+1} = A u_{k-1}^n + B u_k^n + C u_{k+1}^n   (k > 1)

    with base row u_1^0 = I.
    """

    def __init__(self, field, s, rows):
        self.field = field
        self.s = s
        self.rows = rows  # rows[n][k-1] for k = 1..n+1
        self._zero = cm.zeros(field, s)

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def value(self, k: int, n: int):
        if k < 1:
            raise ValueError("k starts at 1")
        row = self.rows[n]
        if k > len(row):
            return self._zero
        return row[k - 1]

    def series(self, k: int) -> MatrixSeries:
        """Generating function sum_n value(k, n) z^n as a matrix series."""
        return MatrixSeries(
            self.field, self.s, [self.value(k, n) for n in range(self.order + 1)]
        )

    def binomial_sums(self, rmax: int) -> list[MatrixSeries]:
        """The binomially weighted ladder G*_0 .. G*_rmax, in one pass over the rows.

        The z^n coefficient of G*_r is sum_{k >= r} C(k, r) u_{k+1}^(n), the
        starred standard-walk sum from height k weighted by C(k, r); row n
        stops at k = n, so each sum is finite.  The binomials are the integer
        ones, reduced, so they hold in every characteristic.  Each entry is
        summed in raw arithmetic and reduced once.
        """
        field, s, red = self.field, self.s, self.field.reduce
        binoms = [
            [red(comb(k, r)) for k in range(r, self.order + 1)]
            for r in range(rmax + 1)
        ]
        coeffs = [[] for _ in binoms]
        for row in self.rows:
            # cells[e][k] is entry e, row-major, of u_{k+1}.
            cells = list(zip(*([v for line in block for v in line] for block in row)))
            for r, (binom, out) in enumerate(zip(binoms, coeffs)):
                flat = [red(sum(map(mul, binom, cell[r:]))) for cell in cells]
                out.append([flat[i : i + s] for i in range(0, s * s, s)])
        return [MatrixSeries(field, s, c) for c in coeffs]


def u_table(w: BlockWeights, order: int) -> UTable:
    """The standard-walk table to the given order, each block by one raw sum.

    Each step weight multiplies on the left through its nonzero entries, and
    each entry of a new block is reduced once.  A negative ``order`` raises.
    """
    require_nonnegative(order)
    field, s = w.field, w.s
    down, level, up, floor = (_nonzeros(m) for m in (w.a, w.b, w.c, w.d))
    zero = cm.zeros(field, s)
    rows = [(cm.identity(field, s),)]
    for _ in range(order):
        # Row n holds u_1..u_{n+1} (prev[k] is u_{k+1}); two zero blocks stand
        # in for u_{n+2} and u_{n+3}.
        prev = rows[-1] + (zero, zero)
        nxt = []
        for k in range(len(prev) - 1):
            if k == 0:
                terms = ((floor, prev[0]), (up, prev[1]))
            else:
                terms = ((down, prev[k - 1]), (level, prev[k]), (up, prev[k + 1]))
            out = [[0] * s for _ in range(s)]
            for entries, x in terms:
                _add_left_product(out, entries, x)
            nxt.append(_reduced(field, out))
        rows.append(tuple(nxt))
    return UTable(field, s, tuple(rows))
