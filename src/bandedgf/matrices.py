"""Constant s-by-s matrices over a field, stored as tuples of row tuples.

Scalars are raw field values (see :mod:`bandedgf.fields`), so entries
combine with plain ``+``/``*`` and are reduced per result entry.
:func:`sum_of_products` is the one block-product kernel: ``MatrixSeries``
multiplies and solves only through it.  The Laurent stream moves row slices
through the step weights' nonzero entries in :mod:`bandedgf.laurent`, and the
fixed-point route multiplies through its own per-entry convolutions in
:mod:`bandedgf.engine`, so the two block routes share no product.  The walk
oracle and the walk table multiply flat row-major blocks through (source,
target, v) triples read off the step weights' nonzero entries in
:mod:`bandedgf.walks`, and the identity suite's reference step through
triples it builds and loops over itself; each reduces a new block with one
``reduce_all``.  None shares the kernel it checks.  No module of the
package calls the dense :func:`mul`: it is the product of the tests'
brute-force walk enumeration, and the benchmark tracer counts its calls by
name.
"""

from __future__ import annotations

from .errors import NonUnitError, ShapeError
from .fields import Field


def freeze(rows):
    return tuple(tuple(row) for row in rows)


def identity(field: Field, s: int):
    one, zero = field.one, field.zero
    return tuple(
        tuple(one if i == j else zero for j in range(s)) for i in range(s)
    )


def zeros(field: Field, s: int):
    zero = field.zero
    return tuple((zero,) * s for _ in range(s))


def check_square(m, s: int):
    if len(m) != s or any(len(row) != s for row in m):
        raise ShapeError(f"expected a {s}x{s} matrix")


def add(field: Field, x, y):
    red = field.reduce
    return tuple(
        tuple(red(a + b) for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def sub(field: Field, x, y):
    red = field.reduce
    return tuple(
        tuple(red(a - b) for a, b in zip(rx, ry)) for rx, ry in zip(x, y)
    )


def neg(field: Field, x):
    red = field.reduce
    return tuple(tuple(red(-a) for a in row) for row in x)


def mul(field: Field, x, y):
    if len(y) != len(x):
        raise ShapeError("matrix product dimension mismatch")
    red = field.reduce
    yT = tuple(zip(*y))
    return tuple(
        tuple(red(sum(a * b for a, b in zip(row, col))) for col in yT) for row in x
    )


def sum_of_products(field: Field, pairs):
    """Sum of the products x y over a nonempty sequence of (x, y) matrix pairs.

    Row i of the sum accumulates x[i][t] * (row t of y) in raw arithmetic,
    skipping the zero entries of each left factor, and each entry is reduced
    once at the end.  The step weights and the sparse products built from
    them (C G A, the symbol's A, B, C) are mostly zero, so the skip pays.
    """
    s = len(pairs[0][0])
    rng = range(s)
    acc = [[0] * s for _ in rng]
    for x, y in pairs:
        for i in rng:
            xrow, acci = x[i], acc[i]
            for t in rng:
                v = xrow[t]
                if v:
                    yrow = y[t]
                    for j in rng:
                        acci[j] += v * yrow[j]
    red = field.reduce
    return tuple(tuple(map(red, row)) for row in acc)


def is_zero(field: Field, x) -> bool:
    zero = field.zero
    return all(a == zero for row in x for a in row)


def inverse(field: Field, m):
    """Gauss-Jordan inverse; raises NonUnitError on a singular matrix."""
    s = len(m)
    check_square(m, s)
    red = field.reduce
    aug = [list(row) + list(idrow) for row, idrow in zip(m, identity(field, s))]
    for col in range(s):
        pivot = next(
            (r for r in range(col, s) if aug[r][col] != field.zero), None
        )
        if pivot is None:
            raise NonUnitError("matrix is singular over the coefficient field")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = field.inv(aug[col][col])
        aug[col] = [red(a * inv_p) for a in aug[col]]
        for r in range(s):
            if r != col and aug[r][col] != field.zero:
                f = aug[r][col]
                aug[r] = [red(a - f * b) for a, b in zip(aug[r], aug[col])]
    return freeze(row[s:] for row in aug)
