"""Test-only checks: the block-pattern round trip of a reduction, the walk
predicates the tests state the paper's definitions with, the weight of one
walk as a product of dense ``matrices.mul`` steps and the walk enumeration
that sums those weights over all 3^length walks, the brute-force reference
for ``walks.class_sums``, the per-index value of a forcing rule, the
reference for ``section5._rule_tables``, the first columns of the corner
powers reduced at every step, the reference for
``engine.corner_first_columns``, the constant rule a_k = c, the symbol-power
stream formed through whole block products, the reference for the library's
row-slice stream, the symbol determinant by the Leibniz formula on list
polynomials, the reference for ``engine.symbol_determinant``, the
block-size check that reads every entry of its window, the reference for
``banded.verify_block_size``, and the cut that reads every entry of the
2s-by-2s corner, the reference for ``banded.block_reduce``, the full
annihilation system with its g^0 columns and the Horner residual, the
references for ``annihilator._basis`` and ``AnnihilatorPoly.evaluate``, the
head elimination with one field division per back-substitution step (each
vector 1 at its free column), the reference for
``annihilator._head_nullspace``, the series product by one generator per
coefficient, the reference for ``Series.__mul__``, and the closed-form
expansion that evaluates the denominator at the probe order and then both
sides at order + v, the reference for ``ClosedForm.expand``.

None of this is used by the package itself.
"""

from bisect import bisect
from itertools import permutations

from bandedgf import matrices as cm
from bandedgf.banded import BandedSpec, BlockWeights
from bandedgf.errors import InvalidBlockSizeError, NonUnitError
from bandedgf.fields import Field, cleared, denominator, require_same_field
from bandedgf.matseries import MatrixSeries
from bandedgf.section5 import EventuallyPolySeq
from bandedgf.series import Series


class ReductionReport:
    """Outcome of validate_reduction; falsy when a mismatch was found."""

    def __init__(self, mismatch=None):
        self.mismatch = mismatch  # (i, j, rebuilt, expected) or None

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "ReductionReport(ok)"
        i, j, got, want = self.mismatch
        return f"ReductionReport(mismatch at ({i},{j}): rebuilt {got!r} != {want!r})"


def _block_pattern_entry(w: BlockWeights, i: int, j: int):
    """Entry (i, j) of the infinite block matrix D,B on the diagonal, A below, C above."""
    s = w.s
    bi, bj = (i - 1) // s, (j - 1) // s
    r, c = (i - 1) % s, (j - 1) % s
    if bi == bj:
        return w.d[r][c] if bi == 0 else w.b[r][c]
    if bi == bj + 1:
        return w.a[r][c]
    if bj == bi + 1:
        return w.c[r][c]
    return w.field.zero


def validate_reduction(spec: BandedSpec, w: BlockWeights, k: int) -> ReductionReport:
    """Compare the rebuilt block pattern against the spec on the K-by-K corner."""
    require_same_field(spec.field, w.field)
    if k < 2 * w.s:
        raise ValueError(f"validation window {k} is smaller than 2s = {2 * w.s}")
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            got = _block_pattern_entry(w, i, j)
            want = spec.entry(i, j)
            if got != want:
                return ReductionReport((i, j, got, want))
    return ReductionReport()


def check_walk(points) -> None:
    """Raise ValueError unless ``points`` is a walk: a starting point, then
    steps in {-1, 0, 1}."""
    if not points:
        raise ValueError("a walk needs at least its starting point")
    for a, b in zip(points, points[1:]):
        if b - a not in (-1, 0, 1):
            raise ValueError(f"step {a} -> {b} is not in {{-1, 0, 1}}")


WALK_FILTERS = ("all", "standard", "primitive_standard", "primitive")


def _step_weight(w: BlockWeights, a: int, b: int, mode: str):
    """The weight of the step from height a to height b: A down, C up, B level,
    and D for a level step at 0 under the starred weight ``mode="w_star"``."""
    if b - a == -1:
        return w.a
    if b - a == 1:
        return w.c
    return w.d if mode == "w_star" and a == 0 else w.b


def weight(w: BlockWeights, points, mode="w"):
    """Ordered product of step weights; the empty walk weighs the identity."""
    check_walk(points)
    field = w.field
    acc = cm.identity(field, w.s)
    for a, b in zip(points, points[1:]):
        acc = cm.mul(field, acc, _step_weight(w, a, b, mode))
    return acc


def enumerate_sum(w: BlockWeights, length, start, finish, walk_filter="all", mode="w"):
    """Sum of walk weights by length, over walks from start to finish, walk by
    walk (3^length of them).

    ``walk_filter`` is one of :data:`WALK_FILTERS`: "all" walks, "standard"
    ones (no point below the finish), "primitive" ones (closed, start level
    unvisited inside), or "primitive_standard".  The coefficient of z^n is the
    matrix sum over the qualifying walks of length exactly n.
    """
    field, s = w.field, w.s
    standard_only = walk_filter in ("standard", "primitive_standard")
    primitive_only = walk_filter in ("primitive", "primitive_standard")
    sums = [cm.zeros(field, s) for _ in range(length + 1)]
    # A standard walk has no point below its finish, its start included; a
    # primitive walk is closed.
    if (standard_only and start < finish) or (primitive_only and start != finish):
        return MatrixSeries(field, s, sums)
    ident = cm.identity(field, s)
    if start == finish and not primitive_only:
        sums[0] = ident
    # Walks are extended while they can still reach the finish in the steps
    # left; a standard one never steps below the finish, and a primitive one
    # ends at its first return, which is to the finish.
    stack = [(start, 0, ident)]
    while stack:
        h, lng, prod = stack.pop()
        for nh in (h - 1, h, h + 1):
            if abs(nh - finish) > length - lng - 1 or (standard_only and nh < finish):
                continue
            nprod = cm.mul(field, prod, _step_weight(w, h, nh, mode))
            if nh == finish:
                sums[lng + 1] = cm.add(field, sums[lng + 1], nprod)
                if primitive_only:
                    continue
            stack.append((nh, lng + 1, nprod))
    return MatrixSeries(field, s, sums)


def rule_value(seq: EventuallyPolySeq, index: int):
    """a_index for a 1-based index: value k of residue class i, for
    index = i + s·k with i in 1..s; ``initial[k]`` while k is in range, the
    polynomial in k after."""
    if index < 1:
        raise ValueError("sequence indices start at 1")
    k, i = divmod(index - 1, seq.s)
    initial, poly = seq.rules[i]
    if k < len(initial):
        return initial[k]
    field = seq.field
    acc = field.zero
    kval = field.reduce(k)
    power = field.one
    for c in poly:
        acc = field.reduce(acc + c * power)
        power = field.reduce(power * kval)
    return acc


def reference_first_columns(spec: BandedSpec, order: int):
    """V^t e_1 for t = 0..order on the whole k-by-k corner, k = order ·
    bandwidth + max(m, 1), every entry reduced at every step: the reference
    for ``engine.corner_first_columns``, which stops each column at its
    frontier and reduces only at the steps its field's column rule names."""
    field = spec.field
    k = order * spec.bandwidth + max(spec.exceptional_bound, 1)
    rows = []
    for i in range(1, k + 1):
        cols = {i + r for r in spec.bands if 1 <= i + r <= k}
        cols.update(j for (ei, j) in spec.exceptional if ei == i and j <= k)
        row = [(j - 1, spec.entry(i, j)) for j in sorted(cols)]
        rows.append([(j, v) for j, v in row if v != field.zero])
    x = [field.zero] * k
    x[0] = field.one
    out = [x]
    for _ in range(order):
        x = [
            field.reduce(sum(v * x[j] for j, v in row)) if row else field.zero
            for row in rows
        ]
        out.append(x)
    return out


def constant_rules(field: Field, s: int, value) -> EventuallyPolySeq:
    """The sequence with a_k = ``value`` for every k."""
    return EventuallyPolySeq(field, s, [((), (value,))] * s)


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


def reference_trimmed_powers(field, a, b, c, order):
    """The trimmed z^n terms of sum_n (A x + B + C x^-1)^n z^n, as
    ``laurent.trimmed_powers`` yields them, each x^d coefficient one
    ``matrices.sum_of_products`` of the step matrices and the previous term."""
    term, r = (cm.identity(field, len(a)),), 0
    yield term
    for n in range(1, order + 1):
        nr = min(n, order - n + 1)
        term = tuple(
            cm.sum_of_products(field, [
                (step, term[e + r])
                for step, e in ((a, d - 1), (b, d), (c, d + 1))
                if -r <= e <= r
            ])
            for d in range(-nr, nr + 1)
        )
        r = nr
        yield term


def _poly_mul(field, p, q):
    """Product of two polynomials given as coefficient lists, lowest degree first."""
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = field.reduce(out[i + j] + a * b)
    return out


def _sign(perm):
    """+1 or -1: the parity of a permutation from its cycle count."""
    seen, cycles = set(), 0
    for i in range(len(perm)):
        if i not in seen:
            cycles += 1
            while i not in seen:
                seen.add(i)
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def reference_symbol_determinant(w: BlockWeights, z0):
    """Coefficients (by x-degree, 2s + 1 of them) of det(x I - z0 (A x^2 + B x + C)),
    summed over the Leibniz terms, each a product of list polynomials."""
    field, s = w.field, w.s

    def entry(i, j):
        return [
            field.reduce(-z0 * w.c[i][j]),
            field.reduce(int(i == j) - z0 * w.b[i][j]),
            field.reduce(-z0 * w.a[i][j]),
        ]

    total = [field.zero] * (2 * s + 1)
    for perm in permutations(range(s)):
        term = [field.one]
        for i in range(s):
            term = _poly_mul(field, term, entry(i, perm[i]))
        for d, c in enumerate(term):
            total[d] = field.reduce(total[d] + _sign(perm) * c)
    return tuple(total)


def _window(spec: BandedSpec, s: int) -> int:
    return 4 * s + spec.bandwidth + spec.period + spec.exceptional_bound


def reference_verify_block_size(spec: BandedSpec, s: int) -> None:
    """Raise InvalidBlockSizeError unless s satisfies the two corner conditions."""
    if s < 1:
        raise InvalidBlockSizeError(f"block size must be positive, got {s}")
    zero = spec.field.zero
    reach = max(2 * s + 1, s + spec.bandwidth, spec.exceptional_bound)
    for i in range(1, s + 1):
        for j in range(2 * s + 1, reach + 1):
            if spec.entry(i, j) != zero:
                raise InvalidBlockSizeError(
                    f"corner condition fails: v_{{{i},{j}}} is nonzero with "
                    f"i <= {s} < 2*{s} < j",
                    position=(i, j),
                )
            if spec.entry(j, i) != zero:
                raise InvalidBlockSizeError(
                    f"corner condition fails: v_{{{j},{i}}} is nonzero with "
                    f"j <= {s} < 2*{s} < i",
                    position=(j, i),
                )
    w = _window(spec, s)
    for i in range(1, w + 1):
        lo = max(1, s + 2 - i)
        for j in range(lo, w + 1):
            if spec.entry(i + s, j + s) != spec.entry(i, j):
                raise InvalidBlockSizeError(
                    f"shift condition fails at ({i},{j}): "
                    f"v_{{{i + s},{j + s}}} != v_{{{i},{j}}}",
                    position=(i, j),
                )


def reference_block_reduce(spec: BandedSpec, s: int) -> BlockWeights:
    """The D, C / A, B blocks cut entry by entry from the whole 2s-by-2s
    corner, after the full-window check."""
    reference_verify_block_size(spec, s)
    d = [[spec.entry(i, j) for j in range(1, s + 1)] for i in range(1, s + 1)]
    c = [[spec.entry(i, j) for j in range(s + 1, 2 * s + 1)] for i in range(1, s + 1)]
    a = [[spec.entry(i, j) for j in range(1, s + 1)] for i in range(s + 1, 2 * s + 1)]
    b = [
        [spec.entry(i, j) for j in range(s + 1, 2 * s + 1)]
        for i in range(s + 1, 2 * s + 1)
    ]
    return BlockWeights(spec.field, s, a, b, c, d)


def reference_system(field, powers, dz: int):
    """Rows n = 0..order of the annihilation system over the columns of
    g^0..g^dx, integral over Q.

    Column i(dz+1) + j holds the z^n coefficient of z^j g^i; over Q each row
    is multiplied by its :func:`~bandedgf.fields.denominator`, which keeps its
    nullspace.  F_p rows are ints already and are left as they are.
    """
    rows = []
    for n in range(powers[0].order + 1):
        row = [gi[n - j] if n >= j else 0 for gi in (pw.coeffs for pw in powers)
               for j in range(dz + 1)]
        if not field.characteristic:
            den = denominator(row)
            row = [cleared(c, den) for c in row]
        rows.append(row)
    return rows


def reference_evaluate(poly, g: Series) -> Series:
    """Residual series P(z, g(z)) truncated at g's order, by Horner's rule."""
    require_same_field(poly.field, g.field)
    order = g.order
    acc = Series.from_ints(poly.field, poly.coeffs[poly.dx], order)
    for i in range(poly.dx - 1, -1, -1):
        acc = acc * g + Series.from_ints(poly.field, poly.coeffs[i], order)
    return acc


def reference_head_nullspace(field: Field, rows, ncols: int):
    """The basis :func:`_nullspace` describes, by one elimination of all of
    ``rows`` in natural column order: integer rows over Q (Bareiss: every row
    below the pivot is rescaled, zero multiplier or not, which keeps the
    divisions by the previous pivot exact) or rows reduced mod p over F_p (a
    zero multiplier would only rescale the row, so it is skipped).
    """
    p = field.characteristic
    m = [list(row) for row in rows]
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r][c:]
        pivot = top[0]
        for row in m[r + 1:]:
            mult = row[c]
            if p:
                if mult:
                    row[c:] = [(a * pivot - mult * b) % p for a, b in zip(row[c:], top)]
            else:
                row[c:] = [(a * pivot - mult * b) // prev for a, b in zip(row[c:], top)]
        prev = pivot
        pivots.append(c)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [field.zero] * ncols
        x[f] = field.one
        for r in reversed(range(bisect(pivots, f))):
            acc = sum(m[r][j] * x[j] for j in range(pivots[r] + 1, f + 1))
            x[pivots[r]] = field.div(-acc, m[r][pivots[r]])
        basis.append(x)
    return basis


def reference_mul(a: Series, b: Series) -> Series:
    """The product a·b at the smaller order, one generator per coefficient."""
    field = require_same_field(a.field, b.field)
    n = min(a.order, b.order)
    x, y = a.coeffs, b.coeffs
    out = [
        sum(x[k] * y[m - k] for k in range(m + 1)) for m in range(n + 1)
    ]
    return Series(field, out)


def reference_expand(form, order: int) -> Series:
    """The closed form through z^order: the denominator at the probe order
    gives its valuation v, then both sides are evaluated at order + v, again
    whenever that is not the probe order, and divided by z^v."""
    field = form.field

    def side(plain, radical, root, n):
        out = Series.from_ints(field, plain, n)
        if radical:
            out = out + Series.from_ints(field, radical, n) * root
        return out

    probe = max(
        order, 2 * len(form.den_plain) - 2, 2 * len(form.den_radical) + len(form.radicand) - 3
    )
    root = Series.from_ints(field, form.radicand, probe).sqrt()
    den = side(form.den_plain, form.den_radical, root, probe)
    v = den.valuation()
    if v is None:
        raise NonUnitError("the denominator of the closed form is zero")
    deep = order + v
    if deep != probe:
        root = Series.from_ints(field, form.radicand, deep).sqrt()
        den = side(form.den_plain, form.den_radical, root, deep)
    num = side(form.num_plain, form.num_radical, root, deep)
    return num.div_z_pow(v) * den.div_z_pow(v).invert()
