"""Brute-force enumeration of matrix-weighted Motzkin walks.

A walk is a tuple of integer heights with consecutive differences in
{-1, 0, 1}.  Each step carries an s-by-s weight: A for a down step, B for a
level step, C for an up step; the weight of a walk is the ordered product of
its step weights.  The starred weight replaces B by D on level steps taken at
height 0.  Enumeration grows like 3^length, so it is capped and serves as the
ground-truth oracle against the polynomial-time routes.  The table of
standard-walk sums (:func:`u_table`) keeps every s-by-s block u_k^(n) for the
callers that read whole blocks: the binomially weighted ladder and the
identity suite.
"""

from __future__ import annotations

from . import matrices as cm
from .banded import BlockWeights
from .errors import MalformedWalkError, ResourceLimitError
from .matseries import MatrixSeries

DEFAULT_ENUMERATION_CEILING = 14

WALK_FILTERS = ("all", "standard", "primitive_standard", "primitive")


def check_walk(points) -> None:
    if not points:
        raise MalformedWalkError("a walk needs at least its starting point")
    for a, b in zip(points, points[1:]):
        if b - a not in (-1, 0, 1):
            raise MalformedWalkError(f"step {a} -> {b} is not in {{-1, 0, 1}}")


def concat(alpha, beta):
    """Concatenate two walks, translating beta to start at alpha's finish."""
    check_walk(alpha)
    check_walk(beta)
    base = alpha[-1] - beta[0]
    return tuple(alpha) + tuple(p + base for p in beta[1:])


def is_standard(points) -> bool:
    """Every point is at least the final point."""
    check_walk(points)
    last = points[-1]
    return all(p >= last for p in points)


def is_primitive(points) -> bool:
    """Positive length, closed, and the start level is not revisited inside."""
    check_walk(points)
    if len(points) < 2 or points[0] != points[-1]:
        return False
    return all(p != points[0] for p in points[1:-1])


def weight(w: BlockWeights, points, mode: str = "w"):
    """Ordered product of step weights; the empty walk weighs the identity."""
    check_walk(points)
    if mode not in ("w", "w_star"):
        raise ValueError(f"unknown weight mode {mode!r}")
    field = w.field
    acc = cm.identity(field, w.s)
    for a, b in zip(points, points[1:]):
        step = b - a
        if step == -1:
            u = w.a
        elif step == 1:
            u = w.c
        elif mode == "w_star" and a == 0:
            u = w.d
        else:
            u = w.b
        acc = cm.mul(field, acc, u)
    return acc


def _check_length(length: int, ceiling: int) -> None:
    if length < 0:
        raise ValueError("length must be nonnegative")
    if length > ceiling:
        raise ResourceLimitError(
            f"enumeration to length {length} exceeds the ceiling {ceiling} "
            f"(3^length walks)"
        )


def enumerate_sum(
    w: BlockWeights,
    length: int,
    start: int,
    finish: int,
    walk_filter: str = "all",
    mode: str = "w",
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> MatrixSeries:
    """Sum of walk weights by length, over walks from start to finish.

    ``walk_filter`` selects "all" walks, "standard" ones (no point below the
    finish), "primitive" ones (closed, start level unvisited inside), or
    "primitive_standard".  The coefficient of z^n is the matrix sum over the
    qualifying walks of length exactly n.
    """
    _check_length(length, ceiling)
    if walk_filter not in WALK_FILTERS:
        raise ValueError(f"unknown walk filter {walk_filter!r}")
    if mode not in ("w", "w_star"):
        raise ValueError(f"unknown weight mode {mode!r}")
    field, s = w.field, w.s
    standard_only = walk_filter in ("standard", "primitive_standard")
    primitive_only = walk_filter in ("primitive", "primitive_standard")
    sums = [cm.zeros(field, s) for _ in range(length + 1)]
    if primitive_only and start != finish:
        return MatrixSeries(field, s, sums)

    def qualifies(h, lng, min_h, revisit):
        if h != finish:
            return False
        if standard_only and min_h < finish:
            return False
        if primitive_only and (lng == 0 or revisit):
            return False
        return True

    ident = cm.identity(field, s)
    if qualifies(start, 0, start, False):
        sums[0] = ident
    # Stack entries: height, length, product, min height, interior-revisit flag.
    stack = [(start, 0, ident, start, False)]
    while stack:
        h, lng, prod, min_h, revisit = stack.pop()
        if lng == length:
            continue
        child_revisit = revisit or (lng > 0 and h == start)
        remaining = length - lng - 1
        for step, mat in ((-1, w.a), (0, None), (1, w.c)):
            nh = h + step
            if abs(nh - finish) > remaining:
                continue
            if standard_only and nh < finish:
                continue
            if mat is None:
                mat = w.d if (mode == "w_star" and h == 0) else w.b
            nprod = cm.mul(field, prod, mat)
            nmin = min_h if min_h <= nh else nh
            if qualifies(nh, lng + 1, nmin, child_revisit):
                sums[lng + 1] = cm.add(field, sums[lng + 1], nprod)
            stack.append((nh, lng + 1, nprod, nmin, child_revisit))
    return MatrixSeries(field, s, sums)


class WalkSums:
    """Every class of walk sums needed by the identity suite, in one pass.

    All walks start at height 0.  ``m0``/``m1``/``mm1`` are the unrestricted
    sums finishing at 0, -1 and +1; ``gw``/``gwstar`` the standard closed
    sums under the plain and starred weights; ``hw``/``hwstar`` their
    primitive-standard parts; ``j0`` the primitive closed sum (which may dip
    below 0).
    """

    __slots__ = ("m0", "m1", "mm1", "gw", "gwstar", "hw", "hwstar", "j0")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])


def class_sums(
    w: BlockWeights,
    length: int,
    ceiling: int = DEFAULT_ENUMERATION_CEILING,
) -> WalkSums:
    """One depth-first pass computing all WalkSums classes to the given length."""
    _check_length(length, ceiling)
    field, s = w.field, w.s
    mul = cm.mul
    buckets = {name: [cm.zeros(field, s) for _ in range(length + 1)] for name in WalkSums.__slots__}

    def credit(name, lng, prod):
        b = buckets[name]
        b[lng] = cm.add(field, b[lng], prod)

    ident = cm.identity(field, s)
    for name in ("m0", "gw", "gwstar"):
        credit(name, 0, ident)
    # Stack entries: height, length, w-product, and the w*-product (None once
    # the walk has dipped below 0 and can no longer be standard), plus the
    # interior-zero flag for primitivity.
    stack = [(0, 0, ident, ident, False)]
    while stack:
        h, lng, prod, sprod, zero_inside = stack.pop()
        if lng == length:
            continue
        child_zero = zero_inside or (lng > 0 and h == 0)
        remaining = length - lng - 1
        for step in (-1, 0, 1):
            nh = h + step
            if abs(nh) > remaining + 1:
                continue
            if step == -1:
                u = us = w.a
            elif step == 1:
                u = us = w.c
            elif h == 0:
                u, us = w.b, w.d
            else:
                u = us = w.b
            nprod = mul(field, prod, u)
            if sprod is None or nh < 0:
                nsprod = None
            elif sprod is prod and us is u:
                nsprod = nprod
            else:
                nsprod = mul(field, sprod, us)
            nlng = lng + 1
            if nh == 0:
                credit("m0", nlng, nprod)
                if not child_zero:
                    credit("j0", nlng, nprod)
                if nsprod is not None:  # never went below 0: standard
                    credit("gw", nlng, nprod)
                    credit("gwstar", nlng, nsprod)
                    if not child_zero:
                        credit("hw", nlng, nprod)
                        credit("hwstar", nlng, nsprod)
            elif nh == 1:
                credit("mm1", nlng, nprod)
            elif nh == -1:
                credit("m1", nlng, nprod)
            stack.append((nh, nlng, nprod, nsprod, child_zero))
    return WalkSums(
        **{name: MatrixSeries(field, s, buckets[name]) for name in WalkSums.__slots__}
    )


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


def u_table(w: BlockWeights, order: int) -> UTable:
    field, s = w.field, w.s
    zero = cm.zeros(field, s)
    rows = [(cm.identity(field, s),)]
    for _ in range(order):
        # Row n holds u_1..u_{n+1} (prev[k-1] is u_k); two zero blocks stand in
        # for u_{n+2} and u_{n+3}.
        prev = rows[-1] + (zero, zero)
        nxt = [
            cm.add(field, cm.mul(field, w.d, prev[0]), cm.mul(field, w.c, prev[1]))
        ]
        for k in range(2, len(prev)):
            acc = cm.mul(field, w.a, prev[k - 2])
            acc = cm.add(field, acc, cm.mul(field, w.b, prev[k - 1]))
            acc = cm.add(field, acc, cm.mul(field, w.c, prev[k]))
            nxt.append(acc)
        rows.append(tuple(nxt))
    return UTable(field, s, tuple(rows))
