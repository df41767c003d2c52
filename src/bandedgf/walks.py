"""Matrix-weighted Motzkin walks: the walk-sum oracle and the walk table.

A walk is a tuple of integer heights with consecutive differences in
{-1, 0, 1}.  Each step carries an s-by-s weight: A for a down step, B for a
level step, C for an up step; the weight of a walk is the ordered product of
its step weights.  The starred weight replaces B by D on level steps taken at
height 0.  :func:`class_sums` is the oracle the routes are checked against:
one forward pass over heights per walk class, polynomial in the length,
written from these definitions alone.  The oracle and the walk table hold
each live block as one flat row-major list of s^2 entries, multiply it by a
step weight through one list of (source, target, v) triples read off the
weight's nonzero entries, and reduce each new block once; the oracle builds
a block of tuple rows only at the heights a class is read.  The table of
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

    Each class makes its pass on first read, so a caller pays only for the
    classes it reads: ``m0``, ``m1`` and ``mm1`` share one unrestricted pass
    cut to the heights that can still finish at 0 or +-1, ``by_finish`` makes
    the full unrestricted pass, and ``gw``, ``gwstar``, ``hw``, ``hwstar``
    and ``j0`` one pass each.  Every class is a plain attribute once computed
    and may be reassigned.
    """

    def __init__(self, w: BlockWeights, length: int):
        self._w, self._length = w, length

    def _read(self, level0, reach, heights, **walk_class):
        """One series per height in ``heights``: the blocks a pass leaves there."""
        field, s = self._w.field, self._w.s
        zero = cm.zeros(field, s)
        coeffs = [[] for _ in heights]
        for row in _class_pass(self._w, self._length, level0, reach, **walk_class):
            for k, out in zip(heights, coeffs):
                flat = row.get(k)
                out.append(zero if flat is None else _square(flat, s))
        return [MatrixSeries._trusted(field, s, tuple(c)) for c in coeffs]

    def _closed(self, level0, **walk_class):
        return self._read(level0, 0, (0,), **walk_class)[0]

    @cached_property
    def _transitions(self):
        return self._read(self._w.b, 1, (0, -1, 1))

    @cached_property
    def m0(self):
        return self._transitions[0]

    @cached_property
    def m1(self):
        return self._transitions[1]

    @cached_property
    def mm1(self):
        return self._transitions[2]

    @cached_property
    def by_finish(self):
        w, s = self._w, self._w.s
        return tuple(
            {h: _square(flat, s) for h, flat in row.items()}
            for row in _class_pass(w, self._length, w.b, self._length)
        )

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


def _square(flat, s):
    """The s-by-s block of tuple rows held row-major in the flat list ``flat``."""
    return tuple(zip(*[iter(flat)] * s))


def _right_triples(m, s):
    """x -> x m on flat row-major blocks, as (source, target, v) triples: for
    each nonzero entry (t, j, v) of the step weight m and each row i, entry
    (i, j) of the product gains v times entry (i, t) of x."""
    entries = [(t, j, v) for t, row in enumerate(m) for j, v in enumerate(row) if v]
    return [(i * s + t, i * s + j, v) for i in range(s) for t, j, v in entries]


def _left_triples(m, s):
    """x -> m x on flat row-major blocks, as (source, target, v) triples: for
    each nonzero entry (i, t, v) of the step weight m and each column j,
    entry (i, j) of the product gains v times entry (t, j) of x."""
    entries = [(i, t, v) for i, row in enumerate(m) for t, v in enumerate(row) if v]
    return [(t * s + j, i * s + j, v) for i, t, v in entries for j in range(s)]


def _class_pass(w, length, level0, reach, standard=False, primitive=False):
    """Yield, for n = 0..length, the sums over one class of walks from 0 of
    length n, as a dict from finishing height to a flat row-major block.

    Each step multiplies its weight on the right, in walk order, through the
    weight's (source, target, v) triples, and each new block is reduced once,
    by one ``reduce_all``.  A standard walk stays at or above 0, a primitive
    one stops at its first return to 0 (and has positive length), and a level
    step at 0 weighs ``level0`` (B plain, D starred).  The class is read at
    heights within ``reach`` of 0, and a walk at |h| > length - n + reach
    after n steps cannot finish there, so step n keeps the heights up to
    min(n, length - n + reach): reach 0 for a closed class, 1 for the
    transition sums, ``length`` for every endpoint.  A height within those
    bounds gets its block even when every step into it weighs zero.
    """
    field, s = w.field, w.s
    reduce_all = field.reduce_all
    down, level, up, floor = (_right_triples(m, s) for m in (w.a, w.b, w.c, level0))
    live = {0: [v for row in cm.identity(field, s) for v in row]}
    yield {} if primitive else live
    for n in range(1, length + 1):
        top = min(n, length - n + reach)
        raw = {h: [0] * (s * s) for h in range(0 if standard else -top, top + 1)}
        for h, x in live.items():
            for nh, triples in ((h - 1, down), (h, floor if h == 0 else level), (h + 1, up)):
                out = raw.get(nh)
                if out is not None:
                    for src, tgt, v in triples:
                        out[tgt] += x[src] * v
        row = {h: reduce_all(out) for h, out in raw.items()}
        yield row
        live = {h: x for h, x in row.items() if h} if primitive else row


def class_sums(w: BlockWeights, length: int) -> WalkSums:
    """All WalkSums classes to the given length, by one pass per walk class
    (each pass when its class is first read).

    Heights stay in [-n, n] at length n and each step touches only the
    nonzero entries of its weight, so each pass costs O(length^2 · s · nnz)
    time, nnz the number of nonzero entries of A, B and C (or D).  The
    transition sums keep only |h| <= length - n + 1 at length n; ``by_finish``
    keeps every endpoint block, O(length^2 s^2) memory, once it is read.
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

    Each step weight multiplies on the left through its (source, target, v)
    triples on flat row-major blocks, and each new block is reduced once, by
    one ``reduce_all``; the table keeps it as a tuple of rows.  A negative
    ``order`` raises.
    """
    require_nonnegative(order)
    field, s = w.field, w.s
    reduce_all = field.reduce_all
    down, level, up, floor = (_left_triples(m, s) for m in (w.a, w.b, w.c, w.d))
    zero = [field.zero] * (s * s)
    flat = [[v for row in cm.identity(field, s) for v in row]]
    rows = [(cm.identity(field, s),)]
    for _ in range(order):
        # flat holds u_1..u_{n+1} of row n (prev[k] is u_{k+1}); two zero
        # blocks stand in for u_{n+2} and u_{n+3}.
        prev = flat + [zero, zero]
        flat = []
        for k in range(len(prev) - 1):
            if k == 0:
                terms = ((floor, prev[0]), (up, prev[1]))
            else:
                terms = ((down, prev[k - 1]), (level, prev[k]), (up, prev[k + 1]))
            out = [0] * (s * s)
            for triples, x in terms:
                for src, tgt, v in triples:
                    out[tgt] += x[src] * v
            flat.append(reduce_all(out))
        rows.append(tuple(_square(block, s) for block in flat))
    return UTable(field, s, tuple(rows))
