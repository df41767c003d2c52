"""Exact coefficient fields.

Two fields are supported: the rationals (scalars are ``fractions.Fraction``,
kept in lowest terms with positive denominator by the stdlib) and prime
fields F_p (scalars are ints in ``[0, p)``).  Scalars are raw Python values,
not wrapper objects; the field object supplies the operations that are not
plain ``+``/``*`` (reduction, inversion, parsing, printing).  Sums and
products of raw scalars stay exact under native arithmetic, so hot loops may
accumulate with operators and call :meth:`Field.reduce` once per result, or
:meth:`Field.reduce_all` once per list of results.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mod

from .errors import FieldMismatchError, NonUnitError, SpecFormatError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all 13 bases above (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
MR_PROVEN_BOUND = 3317044064679887385961981
# What Field.parse reads from a string: an optionally signed integer, or one
# over an unsigned denominator, ASCII digits only, nothing around them.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41.

    Proven for all n < MR_PROVEN_BOUND (about 3.3e24, which covers 2**64);
    at or past it the answer may be wrong, so :class:`PrimeField` refuses such
    moduli.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of the two coefficient fields."""

    @property
    def characteristic(self) -> int:
        raise NotImplementedError

    def reduce(self, x):
        """Canonicalize a raw arithmetic result into a field scalar."""
        raise NotImplementedError

    def reduce_all(self, xs):
        """:meth:`reduce` on every item of the list or tuple ``xs``, as a list."""
        return list(map(self.reduce, xs))

    # 0 and 1 are already canonical in both fields (ints, and p >= 2).
    zero = 0
    one = 1
    noun: str  # :meth:`parse` refuses a value as "not a <noun> value"

    def inv(self, x):
        raise NotImplementedError

    def div(self, x, y):
        return self.reduce(x * self.inv(y))

    def parse(self, text):
        """Parse an int, or a string that spells an optionally signed integer
        or "num/den", into a scalar, through :meth:`reduce`."""
        if not (is_json_int(text) or isinstance(text, str) and _RATIONAL_TEXT.fullmatch(text)):
            raise SpecFormatError(f"not a {self.noun} value: {text!r}")
        try:
            return self.reduce(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            # ValueError: a numerator or denominator past Python's int digit limit.
            raise SpecFormatError(f"not a {self.noun} value: {text!r}") from exc
        except NonUnitError as exc:
            raise SpecFormatError(
                f"{text!r} has denominator divisible by {self.characteristic}"
            ) from exc

    def parse_list(self, values, what: str):
        """Parse a JSON list of scalars; ``what`` names it in the error."""
        if not isinstance(values, list):
            raise SpecFormatError(f"{what} must be a list, got {values!r}")
        return [self.parse(v) for v in values]

    def format(self, x) -> str:
        """Canonical string form; inverse of :meth:`parse`."""
        raise NotImplementedError


class RationalField(Field):
    """Exact rationals, canonicalized as plain int when integral.

    Integer-valued scalars are kept as Python ints (native-speed +/*, still
    exact) and promote to Fraction only when a true fraction appears; ints
    and Fractions mix exactly and compare equal, so the two spellings are
    interchangeable everywhere.
    """

    noun = "rational"

    @property
    def characteristic(self) -> int:
        return 0

    def reduce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise TypeError(f"not an exact rational: {x!r}")

    def reduce_all(self, xs):
        """A list or tuple of ints is canonical as it is and comes back unchanged."""
        if set(map(type, xs)) <= {int}:
            return xs
        return list(map(self.reduce, xs))

    def inv(self, x):
        x = Fraction(x)
        if x == 0:
            raise NonUnitError("division by zero in the rationals")
        return self.reduce(Fraction(x.denominator, x.numerator))

    def format(self, x) -> str:
        return str(self.reduce(x))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
    noun = "field"

    def __init__(self, p: int):
        if isinstance(p, int) and p >= MR_PROVEN_BOUND:
            raise SpecFormatError(
                f"modulus {p} is too large: primality is proven only below {MR_PROVEN_BOUND}"
            )
        if not isinstance(p, int) or not is_prime(p):
            raise SpecFormatError(f"modulus {p!r} is not prime")
        self.p = p

    @property
    def characteristic(self) -> int:
        return self.p

    def reduce(self, x):
        """x mod p; a Fraction n/d maps to n·d^-1, refused when p divides d."""
        if isinstance(x, int):
            return x % self.p
        if not isinstance(x, Fraction):
            raise TypeError(f"not an exact rational: {x!r}")
        if not (den := x.denominator % self.p):
            raise NonUnitError(f"{x} has denominator divisible by {self.p}")
        return x.numerator * pow(den, -1, self.p) % self.p

    def reduce_all(self, xs):
        """Raw int results mod p in one pass; a true fraction must go through :meth:`reduce`."""
        return list(map(mod, xs, repeat(self.p)))

    def inv(self, x):
        x = x % self.p
        if x == 0:
            raise NonUnitError(f"0 has no inverse mod {self.p}")
        return pow(x, -1, self.p)

    def format(self, x) -> str:
        return str(x % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime_field", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = RationalField()


def require_same_field(a: Field, b: Field) -> Field:
    if a != b:
        raise FieldMismatchError(f"mixed coefficient fields: {a!r} vs {b!r}")
    return a


def field_from_json(doc) -> Field:
    """Decode the "field" member of a spec document."""
    if doc == "rational":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"prime"}:
        return PrimeField(doc["prime"])
    raise SpecFormatError(f'bad "field" entry: {doc!r}')


def field_to_json(field: Field):
    if not field.characteristic:
        return "rational"
    return {"prime": field.p}


def is_json_int(value) -> bool:
    """True for a JSON integer; JSON true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def scalar_to_json(v):
    """A scalar as a JSON value: an int when integral, else the fraction's text."""
    return int(v) if v.denominator == 1 else str(v)


def denominator(values) -> int:
    """The lcm of the denominators of the scalars ``values``: 1 over F_p,
    whose scalars are ints."""
    return lcm(*(v.denominator for v in values))


def cleared(v, den: int) -> int:
    """den · v as an int, for a scalar v whose denominator divides ``den``."""
    return v.numerator * (den // v.denominator)
