"""Square matrices whose entries are truncated power series.

Stored as a sequence of constant-matrix coefficients: ``coeffs[n]`` is the
s-by-s matrix multiplying z^n.  This makes products against constant step
matrices cheap, which is what the generating-function routes do most.
Division is one online left solve, :meth:`MatrixSeries.solve`; the inverse
is the solve against the identity.
"""

from __future__ import annotations

from . import matrices as cm
from .errors import ShapeError
from .fields import Field, require_same_field
from .series import Series, require_nonnegative


class MatrixSeries:
    __slots__ = ("field", "s", "coeffs")

    def __init__(self, field: Field, s: int, coeffs):
        coeffs = tuple(cm.freeze(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a matrix series needs at least the z^0 coefficient")
        for c in coeffs:
            cm.check_square(c, s)
        self.field = field
        self.s = s
        self.coeffs = coeffs

    # -- construction ----------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, s: int, coeffs: tuple) -> "MatrixSeries":
        """A series on a nonempty tuple of s-by-s tuple matrices the caller
        has just built; nothing is copied or checked."""
        self = object.__new__(cls)
        self.field = field
        self.s = s
        self.coeffs = coeffs
        return self

    @classmethod
    def identity(cls, field: Field, s: int, order: int) -> "MatrixSeries":
        return cls.from_const(field, cm.identity(field, s), order)

    @classmethod
    def from_const(cls, field: Field, m, order: int) -> "MatrixSeries":
        require_nonnegative(order)
        m, s = cm.freeze(m), len(m)
        cm.check_square(m, s)
        return cls._trusted(field, s, (m,) + (cm.zeros(field, s),) * order)

    # -- queries ---------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def entry(self, i: int, j: int) -> Series:
        """Scalar series at 0-based position (i, j)."""
        return Series(self.field, [c[i][j] for c in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, MatrixSeries)
            and self.field == other.field
            and self.s == other.s
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"MatrixSeries(s={self.s}, order={self.order})"

    def is_zero(self) -> bool:
        return all(cm.is_zero(self.field, c) for c in self.coeffs)

    def truncate(self, order: int) -> "MatrixSeries":
        require_nonnegative(order)
        if order >= self.order:
            return self
        return MatrixSeries._trusted(self.field, self.s, self.coeffs[: order + 1])

    def _common(self, other: "MatrixSeries") -> int:
        require_same_field(self.field, other.field)
        if self.s != other.s:
            raise ShapeError(f"matrix sizes differ: {self.s} vs {other.s}")
        return min(self.order, other.order)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "MatrixSeries") -> "MatrixSeries":
        n = self._common(other)
        f = self.field
        return MatrixSeries._trusted(
            f, self.s,
            tuple(cm.add(f, self.coeffs[k], other.coeffs[k]) for k in range(n + 1)),
        )

    def __sub__(self, other: "MatrixSeries") -> "MatrixSeries":
        n = self._common(other)
        f = self.field
        return MatrixSeries._trusted(
            f, self.s,
            tuple(cm.sub(f, self.coeffs[k], other.coeffs[k]) for k in range(n + 1)),
        )

    def __mul__(self, other: "MatrixSeries") -> "MatrixSeries":
        n = self._common(other)
        f, sop = self.field, cm.sum_of_products
        a, b = self.coeffs, other.coeffs
        return MatrixSeries._trusted(
            f, self.s,
            tuple(sop(f, [(a[k], b[m - k]) for k in range(m + 1)]) for m in range(n + 1)),
        )

    def lmul_const(self, m) -> "MatrixSeries":
        """Left-multiply by a constant matrix."""
        cm.check_square(m, self.s)
        f, sop = self.field, cm.sum_of_products
        return MatrixSeries._trusted(f, self.s, tuple(sop(f, [(m, c)]) for c in self.coeffs))

    def rmul_const(self, m) -> "MatrixSeries":
        """Right-multiply by a constant matrix."""
        cm.check_square(m, self.s)
        f, sop = self.field, cm.sum_of_products
        return MatrixSeries._trusted(f, self.s, tuple(sop(f, [(c, m)]) for c in self.coeffs))

    def shift(self, k: int) -> "MatrixSeries":
        """z^k times the series, at the same order."""
        if k < 0:
            raise ValueError("negative shift")
        n = len(self.coeffs)
        pad = (cm.zeros(self.field, self.s),) * min(k, n)
        return MatrixSeries._trusted(self.field, self.s, (pad + self.coeffs)[:n])

    def solve(self, rhs: "MatrixSeries") -> "MatrixSeries":
        """The series X with self X = rhs, found online, one coefficient at a
        time; the constant term of self must be invertible over F.

        X_n = -a_0^-1 (a_1 X_(n-1) + ... + a_n X_0 - rhs_n): one constant
        inverse, then two sums of products per coefficient.
        """
        n = self._common(rhs)
        f, a, b, sop = self.field, self.coeffs, rhs.coeffs, cm.sum_of_products
        c0 = cm.inverse(f, a[0])
        neg_c0, neg_one = cm.neg(f, c0), cm.neg(f, cm.identity(f, self.s))
        out = [sop(f, [(c0, b[0])])]
        for m in range(1, n + 1):
            # a_1 X_(m-1) + ... + a_m X_0 - rhs_m, reduced once.
            acc = sop(f, [(neg_one, b[m]), *((a[k], out[m - k]) for k in range(1, m + 1))])
            out.append(sop(f, [(neg_c0, acc)]))
        return MatrixSeries._trusted(f, self.s, tuple(out))

    def inverse(self) -> "MatrixSeries":
        """Order-by-order inverse; the constant term must be invertible over F."""
        return self.solve(MatrixSeries.identity(self.field, self.s, self.order))
