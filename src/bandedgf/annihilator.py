"""Reconstruction and verification of annihilating polynomials.

Given a series g known to high order, search for a nonzero bivariate
polynomial P(z, x) with P(z, g(z)) = 0 through every known order.  The
search is linear algebra: coefficients c_{i,j} of z^j x^i are unknowns and
each z-order of sum c_{i,j} z^j g^i contributes one homogeneous equation.
The system is built once, at the largest bounds, and reduced to a basis of
its nullspace.  The dz + 1 unknowns of x^0 are solved outright from rows
0..dz, so only the c = dx(dz+1) columns of g^1..g^dx are eliminated, over
the n - dz rows dz+1..n: a square head of c rows (fraction-free over Q; over
F_p with pivot rows normalised to 1 mod p and the rows below reduced only
where they are read), and every later row is checked against the basis by
dot products, so the cost is O(c^3) elimination plus O(n·c·d) checks for a
d-dimensional nullspace, plus O(dx·dz·n) for the x^0 entries; a row that
fails the check grows the head.
Three reads of that small basis find the least x-degree, the least
z-degree, and the solution itself.  Over Q every step runs on integers: the
back-substitution divides exactly, and the reads eliminate fraction-free, so
a dependency is found up to scale, which the canonical form then fixes.
The returned polynomial is made canonical (degree-minimal within the given
bounds, integer content 1 over the rationals, deterministic sign/scaling) so
reruns and golden-file comparisons are stable.  Verification re-evaluates
the residual sum_i c_i(z) g^i, over the powers of g, against a series
recomputed to a higher order, which is the actual certificate;
:func:`certify` does both from one table of powers.  Closed forms built from
one square root are checked by exact expansion.
"""

from __future__ import annotations

from bisect import bisect
from math import gcd
from itertools import repeat
from operator import add, mul

from .errors import (
    InsufficientPrecisionError,
    NonUnitError,
    SpecFormatError,
)
from .fields import Field, cleared, denominator, require_same_field, scalar_to_json
from .series import Series

DEFAULT_GUARD = 20


class AnnihilatorPoly:
    """Bivariate polynomial with coefficient grid coeffs[i][j] of z^j x^i.

    Construction canonicalizes from the nonzero cells: the grid spans their
    largest i and largest j, so trailing zero rows and columns go, and it is
    scaled so that over the rationals all entries are integers with content
    1 and the lexicographically leading entry (largest i, then largest j) is
    positive, while over a prime field that entry is 1.  Identically zero
    grids are rejected.
    """

    def __init__(self, field: Field, coeffs):
        cells = {
            (i, j): v
            for i, row in enumerate(coeffs)
            for j, c in enumerate(row)
            if (v := field.reduce(c)) != field.zero
        }
        if not cells:
            raise ValueError("annihilating polynomial must be nonzero")
        top = max(cells)  # the leading entry: largest i, then largest j
        dx, dz, lead = top[0], max(j for _, j in cells), cells[top]
        if field.characteristic:
            scale = field.inv(lead)
            cells = {k: field.reduce(c * scale) for k, c in cells.items()}
        else:
            den = denominator(cells.values())
            ints = {k: cleared(c, den) for k, c in cells.items()}
            content = gcd(*ints.values()) * (-1 if lead < 0 else 1)
            cells = {k: c // content for k, c in ints.items()}
        self.field = field
        self.coeffs = tuple(
            tuple(cells.get((i, j), field.zero) for j in range(dz + 1)) for i in range(dx + 1)
        )

    @property
    def dx(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dz(self) -> int:
        return len(self.coeffs[0]) - 1

    def __eq__(self, other):
        return (
            isinstance(other, AnnihilatorPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"AnnihilatorPoly(dx={self.dx}, dz={self.dz})"

    def evaluate(self, g: Series) -> Series:
        """Residual series P(z, g(z)) truncated at g's order: sum_i c_i(z) g^i
        over :func:`powers`, so one squaring and dx - 2 series products."""
        require_same_field(self.field, g.field)
        return _combination(self.coeffs, powers(g, self.dx), g.order)

    def pretty(self) -> str:
        """Human-readable form, highest x-degree first."""
        chunks = []
        for i in range(self.dx, -1, -1):
            poly = _pretty_z_poly(self.field, self.coeffs[i])
            if poly is None:
                continue
            if i == 0:
                chunks.append(poly if "+" not in poly and "-" not in poly[1:] else f"({poly})")
            else:
                xpart = "x" if i == 1 else f"x^{i}"
                chunks.append(f"({poly})*{xpart}")
        return " + ".join(chunks)

    def to_json_doc(self) -> dict:
        return {
            "dx": self.dx,
            "dz": self.dz,
            "coeffs": [
                [scalar_to_json(c) for c in row] for row in self.coeffs
            ],
            "pretty": self.pretty(),
        }

    @classmethod
    def from_json_doc(cls, doc, field: Field) -> "AnnihilatorPoly":
        if not isinstance(doc, dict) or "coeffs" not in doc:
            raise SpecFormatError('polynomial document needs a "coeffs" grid')
        rows = doc["coeffs"]
        if not isinstance(rows, list):
            raise SpecFormatError(f'"coeffs" must be a list of rows, got {rows!r}')
        grid = [field.parse_list(row, 'a row of "coeffs"') for row in rows]
        if all(c == field.zero for row in grid for c in row):
            raise SpecFormatError("the coefficient grid is zero or empty")
        return cls(field, grid)


def _pretty_z_poly(field, row):
    zero = field.zero
    terms = []
    for j in range(len(row) - 1, -1, -1):
        c = row[j]
        if c == zero:
            continue
        # F_p scalars are ints in [0, p), so only a rational can be negative.
        mag, neg = abs(c), c < 0
        if j == 0:
            body = field.format(mag)
        else:
            zpart = "z" if j == 1 else f"z^{j}"
            body = zpart if mag == field.one else f"{field.format(mag)}*{zpart}"
        if not terms:
            terms.append(f"-{body}" if neg else body)
        else:
            terms.append(f" - {body}" if neg else f" + {body}")
    if not terms:
        return None
    return "".join(terms)


# -- reconstruction ---------------------------------------------------------------


def require_order(order: int, dx: int, dz: int, guard: int) -> None:
    """Refuse dx < 1, dz < 0, or an order below (dx+1)(dz+1) + guard, reconstruct's least."""
    if dx < 1 or dz < 0:
        raise ValueError("need dx >= 1 and dz >= 0")
    if order < (needed := (dx + 1) * (dz + 1) + guard):
        raise InsufficientPrecisionError(
            f"series order {order} is too small for bounds ({dx},{dz}); need at least {needed}"
        )


def powers(g: Series, dx: int) -> list[Series]:
    """g^0, g^1, ..., g^dx at g's order: g^2 by one squaring, then dx - 2
    series products.

    The squaring reads each product g_k g_(m-k) with k < m - k once, as
    [z^m] g^2 = 2·sum_(k < m/2) g_k g_(m-k) (+ g_(m/2)^2 for even m), with
    the sum one C-level dot product like the one of ``Series.__mul__``.
    """
    out = [Series.one(g.field, g.order), g]
    if dx >= 2:
        a = g.coeffs
        n = len(a) - 1
        ra = a[::-1]
        # ra[n - m + k] is g_(m - k), so the slice pairs g_0.. with g_m, g_(m-1), ...
        out.append(Series(g.field, [
            2 * sum(map(mul, a, ra[n - m:n - m + (m + 1) // 2]))
            + (0 if m % 2 else a[m // 2] * a[m // 2])
            for m in range(n + 1)
        ]))
    for _ in range(dx - 2):
        out.append(out[-1] * g)
    return out[:dx + 1]


def _combination(grid, pw, order: int) -> Series:
    """sum_i c_i(z) pw[i] through z^order, with c_i(z) = sum_j grid[i][j] z^j:
    one scaled, shifted copy of a power per nonzero c_{i,j}, no series product."""
    field = pw[0].field
    acc = [field.zero] * (order + 1)
    for row, p in zip(grid, pw):
        for j, c in enumerate(row[:order + 1]):
            if c:
                acc[j:] = map(add, acc[j:], map(mul, repeat(c), p.coeffs))
    return Series(field, acc)


def reconstruct(
    g: Series, dx: int, dz: int, guard: int = DEFAULT_GUARD
) -> AnnihilatorPoly | None:
    """Degree-minimal annihilating polynomial within the bounds, or None.

    Requires g.order >= (dx+1)(dz+1) + guard so that the homogeneous system
    is comfortably overdetermined; spurious solutions that merely match a
    truncation are then ruled out by re-verification at higher order.  The
    minimization is lexicographic: smallest x-degree admitting a solution,
    then smallest z-degree at that x-degree.

    The system is built once, at (dx, dz), and reduced once, by
    :func:`_basis`, to a basis of its nullspace.  Three reads of that
    basis each find the first column, in some order, that depends on the
    columns before it:

    1. in (i, j) order: that column's i is the least x-degree dx';
    2. in (j, i) order at dx': that column's j is the least z-degree dz';
    3. in (i, j) order at (dx', dz'): its dependency is the solution.

    Every smaller bound's columns are a prefix of the order read, so a bound
    admits a solution exactly when the first dependent column lies inside it.
    Read 3 fixes the polynomial even when the solutions at (dx', dz') are not
    all proportional: it is the one a scan of the bounds in (i, j) order finds.

    Only the dx(dz+1) columns of g^1..g^dx are eliminated.  Column (0, j) of
    the system is the unit vector e_j, as g^0 = 1, and the order is past dz.
    So elimination in natural column order pivots rows 0..dz on the first
    dz + 1 columns, with pivot 1, and leaves every later row as it is there:
    its multiplier is 0, the pivot 1 and the previous pivot 1.  The free
    columns, and the basis restricted to i >= 1, are then exactly those of
    the reduced system, rows n = dz+1..order over the columns i >= 1, where
    g^i[n - j] needs no test for n >= j.  Row n <= dz of the full system
    reads x_(0,n) + [z^n] sum_{i>=1} c_i(z) g^i = 0, with c_i(z) = sum_j
    x_(i,j) z^j, which gives each basis vector's g^0 entries.

    A thin wrapper: the work is :func:`_solve` over ``powers(g, dx)``.
    """
    require_order(g.order, dx, dz, guard)
    grid = _solve(powers(g, dx), dz)
    return None if grid is None else AnnihilatorPoly(g.field, grid)


def certify(h: Series, order: int, dx: int, dz: int, guard: int, scale: int):
    """``(poly, result)`` from one table of powers of h, or ``(None, None)``.

    With g(z) = h(z / scale), ``poly`` is ``reconstruct(g.truncate(order),
    dx, dz, guard)`` and ``result`` is ``verify(poly, g)``, but both are read
    on h: ``powers(h, dx)`` is computed once, the system reads its
    truncations at ``order``, and the residual is sum_i q_i(z) h^i over the
    whole table, through h's order.  An integral h, the corner series of the
    cleared spec L·V with ``scale`` = L, keeps all of it on integers.

    The z^n coefficient of z^j h^i is L^(n-j) times that of z^j g^i, so the
    rows and columns of the system are rescaled by nonzero constants: the
    same columns depend on the ones before them, and the dependency q on h
    maps to p_ij = q_ij / L^j on g.  The residuals are related by
    R_g(z) = R_h(z / L), so their first nonzero order and the order checked
    are the same.
    """
    require_order(order, dx, dz, guard)
    field = h.field
    pw = powers(h, dx)
    grid = _solve([p.truncate(order) for p in pw], dz)
    if grid is None:
        return None, None
    result = VerifyResult(_combination(grid, pw, h.order))
    if scale != 1:
        grid = [[field.div(c, scale**j) for j, c in enumerate(row)] for row in grid]
    return AnnihilatorPoly(field, grid), result


def _solve(pw, dz: int):
    """The coefficient grid, up to scale, of the polynomial :func:`reconstruct`
    describes, for the series g = pw[1] with powers ``pw`` = g^0..g^dx at
    g's order, or None."""
    field = pw[0].field
    dx = len(pw) - 1
    width = dz + 1
    basis = _basis(pw, dz)

    def by_x(bx, bz):
        return [i * width + j for i in range(bx + 1) for j in range(bz + 1)]

    first = _first_dependent(field, basis, by_x(dx, dz))
    if first is None:
        return None
    found_dx = first[0] // width
    by_z = [i * width + j for j in range(width) for i in range(found_dx + 1)]
    found_dz = by_z[_first_dependent(field, basis, by_z)[0]] % width
    _, sol = _first_dependent(field, basis, by_x(found_dx, found_dz))
    w = found_dz + 1
    return [sol[i * w:(i + 1) * w] for i in range(found_dx + 1)]


def _basis(pw, dz: int):
    """Nullspace basis of the system of rows n = 0..order, where column
    i(dz+1) + j holds the z^n coefficient of z^j g^i, g^i = pw[i], for an
    order of at least dz: per free column f, the vector that is nonzero at
    f, 0 at the other free columns, and at the pivots by back-substitution,
    scaled to 1 at f over F_p and over Q to the primitive integer vector
    (content 1) positive at f.

    :func:`_nullspace` reduces only :func:`_system`, the columns of
    g^1..g^dx; the g^0 entries in front are -[z^j] sum_{i>=1} c_i(z) g^i, as
    :func:`reconstruct` shows.  They are integers when g is; otherwise the
    vector is cleared by their denominator, which keeps it primitive.
    """
    width = dz + 1
    field = pw[0].field
    out = []
    for v in _nullspace(field, _system(pw[1:], dz), (len(pw) - 1) * width):
        grid = [v[k:k + width] for k in range(0, len(v), width)]
        x = list((-_combination(grid, pw[1:], dz)).coeffs) + v
        den = denominator(x)
        out.append(x if den == 1 else [cleared(c, den) for c in x])
    return out


def _system(pw, dz: int):
    """Rows n = dz+1..order of the annihilation system, over the columns of
    the powers ``pw`` = g^1..g^dx only, integral over Q.

    Column (i - 1)(dz+1) + j holds g^i[n - j], and n > dz >= j.  When g = pw[0]
    is integral, so is every power and every row, as always over F_p, and the
    rows are left as they are; otherwise a row that is not integral is
    multiplied by its :func:`~bandedgf.fields.denominator`, which keeps its
    nullspace.
    """
    fractional = denominator(pw[0].coeffs) != 1
    rows = []
    for n in range(dz + 1, pw[0].order + 1):
        row = [c for p in pw for c in p.coeffs[n:n - dz - 1:-1]]
        if fractional and (den := denominator(row)) != 1:
            row = [cleared(c, den) for c in row]
        rows.append(row)
    return rows


def _nullspace(field: Field, rows, ncols: int):
    """Nullspace basis of the integral ``rows``: per free column f, the vector
    that is nonzero at f, 0 at the other free columns, and at the pivots by
    back-substitution, scaled as :func:`_basis` says.

    Only a square head of the rows is eliminated, the first ``ncols`` of
    them; each later row is then checked against each basis vector by one
    integer dot product (reduced mod p over F_p).  ker R lies in ker R_head,
    so a tail that passes means the two kernels are equal, and the basis, one
    vector per free column as above, is a function of the kernel alone: it is
    the one a full elimination gives, whatever the head's size.  At the first
    row that some vector does not annihilate, the head grows through that
    row, at least doubling, and is eliminated again.
    """
    head = ncols
    while True:
        basis = _head_nullspace(field, rows[:head], ncols)
        bad = _first_live_row(field, rows, head, basis)
        if bad is None:
            return basis
        head = max(bad + 1, 2 * head)


def _first_live_row(field: Field, rows, start: int, basis):
    """Index of the first of ``rows[start:]`` that some vector of ``basis``
    does not annihilate, or None."""
    red = field.reduce
    for n in range(start, len(rows)):
        row = rows[n]
        if any(red(sum(map(mul, row, v))) for v in basis):
            return n
    return None


def _head_nullspace(field: Field, rows, ncols: int):
    """The basis :func:`_nullspace` describes, by one elimination of all of
    ``rows`` in natural column order, on integers throughout.

    Over Q the rows are eliminated by Bareiss: every row below the pivot is
    rescaled, zero multiplier or not, which keeps the divisions by the
    previous pivot exact.  A vector's back-substitution then starts at its
    free column f with d, the last pivot before f (1 if there is none): d is
    the determinant of the pivot rows at the pivot columns, so by Cramer's
    rule d times the vector that is 1 at f is integral, and each step
    x[pc] = -acc / pivot is an exact integer division.  The vector is then
    divided by its content.  Over F_p an entry is reduced only where it is
    read: the pivot search tests m[i][c] mod p, the multiplier is row[c] mod
    p (a zero one is skipped), and the pivot row is reduced as it is scaled
    once to make its pivot 1, so a row update is the unreduced a - mult·b.
    An entry of a row below the pivots takes at most one such update per
    column before its own, from below p, so it stays below p + ncols·p^2 in
    absolute value.  The back-substitution, over the reduced pivot rows, from
    1 at f needs no inverse.
    """
    p = field.characteristic
    m = [list(row) for row in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if p:
            pr = next((i for i in range(r, len(m)) if m[i][c] % p), None)
        else:
            pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if p:
            inv = pow(m[r][c], -1, p)
            m[r][c:] = top = [b * inv % p for b in m[r][c:]]
            for row in m[r + 1:]:
                if mult := row[c] % p:
                    row[c:] = [a - mult * b for a, b in zip(row[c:], top)]
        else:
            top = m[r][c:]
            pivot = top[0]
            for row in m[r + 1:]:
                mult = row[c]
                row[c:] = [(a * pivot - mult * b) // prev for a, b in zip(row[c:], top)]
            prev = pivot
        pivots.append(c)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        k = bisect(pivots, f)
        x = [0] * ncols
        x[f] = 1 if p or not k else m[k - 1][pivots[k - 1]]
        for r in reversed(range(k)):
            pc = pivots[r]
            acc = sum(map(mul, m[r][pc + 1:f + 1], x[pc + 1:f + 1]))
            x[pc] = -acc % p if p else -acc // m[r][pc]
        if not p:
            content = gcd(*x) if x[f] > 0 else -gcd(*x)
            x = [a // content for a in x]
        basis.append(x)
    return basis


def _first_dependent(field: Field, basis, cols):
    """(k, x) for ``cols[k]``, the first of ``cols`` depending on those before it.

    x, indexed like ``cols``, is the dependency up to scale: x[k] is nonzero
    and the later entries are 0.  It is the vector spanned by ``basis`` whose
    last nonzero entry, with the columns off ``cols`` placed after them,
    comes first; echelonizing the basis by last position, from the end,
    leaves it last.  The elimination is fraction-free, v -> top[t]·v - v[t]·top,
    with each new vector reduced mod p over F_p and divided by its content
    over Q, whose basis vectors are integral.  None if there is none.
    """
    p = field.characteristic
    inside = set(cols)
    vecs = [[v[c] for c in cols] + [a for c, a in enumerate(v) if c not in inside]
            for v in basis]
    for t in reversed(range(len(basis[0]) if basis else 0)):
        live = [v for v in vecs if v[t]]
        if not live:
            continue
        top = live[0]
        if len(vecs) == 1:
            return (t, top[:len(cols)]) if t < len(cols) else None
        pt = top[t]
        for v in live[1:]:
            f = v[t]
            if p:
                v[:] = [(a * pt - f * b) % p for a, b in zip(v, top)]
            else:
                v[:] = [a * pt - f * b for a, b in zip(v, top)]
                if (content := gcd(*v)) != 1:
                    v[:] = [a // content for a in v]
        vecs.remove(top)
    return None


# -- verification -----------------------------------------------------------------


class VerifyResult:
    """Outcome of a residual check, read off the residual series alone: falsy,
    with the first nonzero order, unless the residual vanishes through its order."""

    def __init__(self, residual: Series):
        self.first_bad_order = residual.valuation()
        self.checked_order = residual.order

    def __bool__(self):
        return self.first_bad_order is None

    def __repr__(self):
        if self:
            return f"VerifyResult(ok through z^{self.checked_order})"
        return f"VerifyResult(first nonzero residual at z^{self.first_bad_order})"


def verify(poly: AnnihilatorPoly, g: Series) -> VerifyResult:
    """Check P(z, g) = 0 through g's full order."""
    return VerifyResult(poly.evaluate(g))


# -- closed forms with one square root --------------------------------------------


class ClosedForm:
    """(p1 + p2 sqrt(rho)) / (q1 + q2 sqrt(rho)) with polynomial parts.

    ``radicand`` rho must have constant term 1.  The denominator may vanish
    to finite order v at z = 0 provided the numerator vanishes at least as
    fast; the quotient is then the exact shifted division.
    """

    def __init__(self, field: Field, radicand, num_plain, num_radical=(),
                 den_plain=(1,), den_radical=()):
        self.field = field
        self.radicand = self._poly(radicand)
        self.num_plain = self._poly(num_plain)
        self.num_radical = self._poly(num_radical)
        self.den_plain = self._poly(den_plain)
        self.den_radical = self._poly(den_radical)

    def _poly(self, coeffs):
        return tuple(
            self.field.parse(c) if isinstance(c, (int, str)) else self.field.reduce(c)
            for c in coeffs
        )

    def sides(self, order: int) -> tuple[Series, Series]:
        """The numerator and the denominator through z^order, over one sqrt(rho)."""
        field = self.field
        root = Series.from_ints(field, self.radicand, order).sqrt()

        def side(plain, radical):
            out = Series.from_ints(field, plain, order)
            return out + Series.from_ints(field, radical, order) * root if radical else out

        return side(self.num_plain, self.num_radical), side(self.den_plain, self.den_radical)

    def expand(self, order: int) -> Series:
        # (q1 + q2 sqrt(rho)) (q1 - q2 sqrt(rho)) = q1^2 - q2^2 rho, so a nonzero
        # denominator vanishes at z = 0 to order at most the degree bound of
        # q1^2 and q2^2 rho; probing that deep finds its valuation.
        probe = max(
            order,
            2 * len(self.den_plain) - 2,
            2 * len(self.den_radical) + len(self.radicand) - 3,
        )
        num, den = self.sides(probe)
        v = den.valuation()
        if v is None:
            raise NonUnitError("the denominator of the closed form is zero")
        if order + v > probe:
            num, den = self.sides(order + v)
        return (num.div_z_pow(v) * den.div_z_pow(v).invert()).truncate(order)


def check_closed_form_sqrt(g: Series, form: ClosedForm) -> VerifyResult:
    """Compare g against the exact expansion of the closed form, coefficientwise."""
    require_same_field(g.field, form.field)
    return VerifyResult(g - form.expand(g.order))
