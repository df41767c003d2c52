"""Truncated formal power series in z over an exact coefficient field.

A :class:`Series` stores the coefficients of z^0 .. z^N for an explicit
truncation order N.  Binary operations between series of different orders
truncate to the smaller order; inversion, square root and scalar operations
preserve the input order.  All arithmetic is exact.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    InsufficientPrecisionError,
    NonUnitError,
    UnsupportedCharacteristicError,
    UnsupportedSqrtError,
)
from .fields import Field, require_same_field


def require_nonnegative(order: int) -> None:
    """Refuse a negative truncation order."""
    if order < 0:
        raise ValueError("order must be nonnegative")


class Series:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        """The series with the coefficients in the list or tuple ``coeffs``,
        reduced by one :meth:`~bandedgf.fields.Field.reduce_all`, which over F_p
        takes raw int results; a true fraction comes in through :meth:`from_ints`."""
        coeffs = tuple(field.reduce_all(coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the z^0 coefficient")
        self.field = field
        self.coeffs = coeffs

    @classmethod
    def _trusted(cls, field: Field, coeffs: tuple) -> "Series":
        """A series on a nonempty tuple of canonical scalars, such as a slice
        of another series' coefficients; nothing is copied or reduced."""
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_ints(cls, field: Field, values, order: int | None = None) -> "Series":
        """The series with coefficients ``values``, each through
        :meth:`~bandedgf.fields.Field.reduce`, cut or padded with zeros to
        ``order`` when one is given."""
        coeffs = list(map(field.reduce, values))
        if order is not None:
            require_nonnegative(order)
            coeffs = (coeffs + [field.zero] * (order + 1))[: order + 1]
        return cls(field, coeffs)

    @classmethod
    def constant(cls, field: Field, value, order: int) -> "Series":
        return cls.from_ints(field, [value], order)

    @classmethod
    def zero(cls, field: Field, order: int) -> "Series":
        return cls.constant(field, field.zero, order)

    @classmethod
    def one(cls, field: Field, order: int) -> "Series":
        return cls.constant(field, field.one, order)

    # -- basic queries ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(c == zero for c in self.coeffs)

    def valuation(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all stored are 0."""
        zero = self.field.zero
        for n, c in enumerate(self.coeffs):
            if c != zero:
                return n
        return None

    def truncate(self, order: int) -> "Series":
        require_nonnegative(order)
        if order >= self.order:
            return self
        return Series._trusted(self.field, self.coeffs[: order + 1])

    def __repr__(self):
        fmt = self.field.format
        terms = ", ".join(fmt(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"Series(order={self.order}; {terms}{tail})"

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        field = require_same_field(self.field, other.field)
        n = min(self.order, other.order)
        return Series(field, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "Series") -> "Series":
        field = require_same_field(self.field, other.field)
        n = min(self.order, other.order)
        return Series(field, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self) -> "Series":
        return Series(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: "Series") -> "Series":
        field = require_same_field(self.field, other.field)
        n = min(self.order, other.order)
        a, rb = self.coeffs, other.coeffs[n::-1]
        # rb[n - m:] is b_m, ..., b_0, so each coefficient is one C-level dot product.
        return Series(field, [sum(map(mul, a, rb[n - m:])) for m in range(n + 1)])

    def scale(self, scalar) -> "Series":
        return Series(self.field, [c * scalar for c in self.coeffs])

    def invert(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        field = self.field
        a = self.coeffs
        if a[0] == field.zero:
            raise NonUnitError("series has zero constant term")
        c0 = field.inv(a[0])
        out = [c0]
        for n in range(1, self.order + 1):
            acc = sum(a[k] * out[n - k] for k in range(1, n + 1))
            out.append(field.reduce(-c0 * acc))
        return Series(field, out)

    def sqrt(self) -> "Series":
        """Square root with constant term 1, by coefficient recursion."""
        field = self.field
        if field.characteristic == 2:
            raise UnsupportedCharacteristicError("square root needs characteristic != 2")
        if self.coeffs[0] != field.one:
            raise UnsupportedSqrtError("square root requires constant term exactly 1")
        a = self.coeffs
        half = field.inv(2)
        out = [field.one]
        for n in range(1, self.order + 1):
            acc = sum(out[k] * out[n - k] for k in range(1, n))
            out.append(field.reduce((a[n] - acc) * half))
        return Series(field, out)

    def scale_z(self, c) -> "Series":
        """The series in c z: coefficient n times c^n."""
        red = self.field.reduce
        out, power = [], self.field.one
        for x in self.coeffs:
            out.append(red(x * power))
            power = red(power * c)
        return Series(self.field, out)

    # -- shifts ----------------------------------------------------------------

    def div_z_pow(self, k: int) -> "Series":
        """Divide by z^k; the low k coefficients must vanish exactly.

        The result is only known to order ``order - k``.
        """
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        if k == 0:
            return self
        if k > self.order:
            raise InsufficientPrecisionError(
                f"cannot divide a series of order {self.order} by z^{k}"
            )
        zero = self.field.zero
        for n in range(k):
            if self.coeffs[n] != zero:
                raise NonUnitError(
                    f"coefficient of z^{n} is nonzero; division by z^{k} is inexact"
                )
        return Series(self.field, self.coeffs[k:])
