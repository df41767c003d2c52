"""Three independent routes to the corner generating function.

For an infinite matrix V described by a :class:`~bandedgf.banded.BandedSpec`,
the target is the series whose z^n coefficient is the (1,1) entry of V^n.

* the direct route powers a finite corner of V itself;
* the fixed-point route solves the quadratic equation
  G = I + z B G + z^2 C G A G for the standard-walk sum G over the block
  weights, and the first-return equation G* = I + (z D + z^2 C G A) G* for
  the starred sum, both online (one coefficient at a time from the ones
  already known) on per-entry coefficient lists, in O(n^2 · |supp CGA| · s)
  multiplies through order n, |supp CGA| the rows where C has a nonzero
  entry times the columns where A has one;
* the Laurent route reads the transition sums M_0, M_1, M_-1 off the x^0,
  x^{+-1} coefficients of the powers of the step symbol A x + B + C x^-1
  (streamed one z-term at a time by row slices, each trimmed to the
  x-degrees that still reach those three), combines them as
  G = M_0 - M_1 X with X = M_0 \\ M_-1, and converts to the starred sum via
  the floor-weight shift G*^-1 = G^-1 + (B - D) z, taken as
  G* = (I + G (B - D) z) \\ G: two online left solves and one product,
  no series inverse.

The reported scalar is always the (1,1) entry of the starred matrix G*,
which is what the corner of V generates.  ``cross_check`` runs every route
plus the walk-sum oracle of :mod:`bandedgf.walks` (one forward pass over
heights per walk class it reads, O(L^2 · s · nnz) to length L, nnz the
nonzero entries of the step weights) and insists on exact agreement.

Over Q the block routes and the oracle run on the integral weights L·w of
:func:`~bandedgf.banded.clear_denominators`, whose z^n coefficients are L^n
times those of w, so their arithmetic stays on Python ints; only their
corner series are divided back (z -> z / L).  The direct route is
deliberately left on the original Fraction spec: it shares neither the
weights nor the rescale with the block routes, so ``direct_vs_fixed_point``
and ``direct_vs_laurent`` check the rescale itself, and a wrong power of L
shows up as a mismatch.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import repeat
from operator import add, mul

from . import matrices as cm
from .banded import BandedSpec, BlockWeights, block_reduce, clear_denominators
from .errors import ResourceLimitError, RouteMismatchError
from .fields import Field
from .laurent import accumulate
from .matseries import MatrixSeries
from .series import Series, require_nonnegative
from .walks import class_sums


# Longest column corner_first_columns builds, max(m, 1) + order·d rows; a step
# costs O(length · #bands) additions in at most #bands · p slice operations.
# Near the ceiling, one band at offset -1,666 taken to order 60 costs about
# 0.14 s and 20 MB in all on a shared 2-core x86-64 host; offset -16,000
# took 2.5 s and 68 MB before the ceiling refused it.  The tests and CLI
# goldens build at most 601 rows, the benchmark jobs about 430.
COLUMN_CEILING = 100_000


class GenFunBundle:
    """The matrix sums one route produces; ``gv`` is the corner series read off G*."""

    __slots__ = ("gw", "gwstar", "m0", "m1", "mm1")

    def __init__(self, gw, gwstar, m0=None, m1=None, mm1=None):
        self.gw = gw
        self.gwstar = gwstar
        self.m0 = m0
        self.m1 = m1
        self.mm1 = mm1

    @property
    def gv(self) -> Series:
        return self.gwstar.entry(0, 0)


def corner_first_columns(spec: BandedSpec, order: int):
    """V^t e_1 for t = 0..order, each yielded as its rows 1..f_t.

    Here f_t = max(m, 1) + t * d, m = exceptional_bound and d the downward
    reach: row i of V x reads x_{i+r} for the band offsets r = j - i, so a
    step moves the column down by at most d = max(0, -r) over the bands with
    a nonzero value.  No row past f_t can be nonzero: V^0 e_1 = e_1 lives in
    row 1, and a nonzero v_{i,j} lies on a band with a nonzero value
    (i <= j + d) or in the exceptional square (i <= m), so if V^(t-1) e_1
    vanishes below row f_(t-1) then V^t e_1 vanishes below row f_t.  Callers
    read the rows past a column's length as zero.  A negative ``order``
    raises at the call, and so does ResourceLimitError when the last
    column's length f_order exceeds COLUMN_CEILING.

    Rows 1..m are summed one by one, over their nonzero entries
    (:meth:`~bandedgf.banded.BandedSpec.row`) in the rows 1..f_(t-1) of
    V^(t-1) e_1.  Below them row i is sum_r values_r[(i-1) mod p] x_{i+r},
    so the rows of one residue class q are built in one pass, as the sum of
    v_r times the stride-p slice of x starting at row q + r, over the bands r
    whose value v_r on q is nonzero (one chain of ``map(add, ...)``, the
    slice itself when v_r = 1); a class on which every band is zero keeps
    its zero rows.  The slices are read from x with d zeros in front and
    d + u behind, u the upward reach, so every slice of a class has the
    class's length and needs no trim at the frontier: at most
    #bands · p slice operations per step.  When every band with a nonzero
    value is the same on every residue the classes merge into one, stride 1.

    Each step reduces its column once, with one
    :meth:`~bandedgf.fields.Field.reduce_all`.
    """
    require_nonnegative(order)
    field = spec.field
    m, p = spec.exceptional_bound, spec.period
    live = {r: vals for r, vals in spec.bands.items() if any(vals)}
    down, up = max([0, *(-r for r in live)]), max([0, *live])
    reach = max(m, 1)
    if (length := reach + order * down) > COLUMN_CEILING:
        raise ResourceLimitError(
            f"powering the corner to order {order} builds columns of {length} rows, "
            f"past the ceiling of {COLUMN_CEILING} rows"
        )
    rows = [[(j - 1, v) for j, v in sorted(spec.row(i).items())] for i in range(1, m + 1)]
    # (a, terms): the 0-based rows a, a + step, ... past the square form one
    # class, and each (k, v) in terms adds v x[a + r], v x[a + r + step], ...,
    # k = r + down its start in the padded column.
    step = 1 if all(vals.count(vals[0]) == p for vals in live.values()) else p
    classes = []
    for q in range(step):
        terms = [(r + down, vals[q]) for r, vals in live.items() if vals[q]]
        if terms:
            classes.append((m + (q - m) % step, terms))
    zero, red_all = field.zero, field.reduce_all
    tail = [zero] * (down + up)

    def columns():
        x = [field.one] + [zero] * (reach - 1)
        yield x
        for t in range(1, order + 1):
            prev, hi = len(x), reach + t * down
            nx = [sum(v * x[j] for j, v in row if j < prev) for row in rows] + [zero] * (hi - m)
            padded = [zero] * down + x + tail
            for a, terms in classes:
                total = None
                for k, v in terms:
                    src = padded[a + k : hi + k : step]
                    src = src if v == 1 else map(mul, repeat(v), src)
                    total = src if total is None else map(add, total, src)
                nx[a:hi:step] = total
            x = red_all(nx)
            yield x

    return columns()


def direct_route(spec: BandedSpec, order: int) -> Series:
    """Power a finite corner of V and collect its (1,1) entries."""
    return Series(spec.field, [col[0] for col in corner_first_columns(spec, order)])


def _starred(w: BlockWeights, gw: MatrixSeries) -> MatrixSeries:
    """Starred sum from the plain one (Laurent route).

    The floor-weight shift G*^-1 = G^-1 + (B - D) z, solved for G* as
    (I + G (B - D) z) G* = G: one online left solve.
    """
    shift = gw.rmul_const(cm.sub(w.field, w.b, w.d)).shift(1)
    return (MatrixSeries.identity(w.field, w.s, gw.order) + shift).solve(gw)


def _row_entries(m):
    """Row by row, the nonzero entries (column, value) of a constant matrix."""
    return [[(t, v) for t, v in enumerate(row) if v] for row in m]


def _entry_major(field: Field, s: int, entries) -> MatrixSeries:
    """The matrix series whose (r, c) entry has the coefficients entries[r][c]."""
    rows = [list(zip(*row)) for row in entries]
    return MatrixSeries._trusted(field, s, tuple(zip(*rows)))


def fixed_point_route(w: BlockWeights, order: int) -> GenFunBundle:
    """Solve G = I + z B G + z^2 C G A G and its floor-corrected form online.

    With P_i = C G_i A cached as each G_i is finished, both sums follow
    coefficient by coefficient from

        G_k  = B G_{k-1}  + sum_{i+j=k-2} P_i G_j,
        G*_k = D G*_{k-1} + sum_{i+j=k-2} P_i G*_j,

    the second being the first-return decomposition G* = I + (z D + z^2 C G A) G*
    of walks at the floor.  G and G* are kept entry-major, one growing list
    of coefficients per entry (t, c), and P only on its support: the rows
    where C has a nonzero entry times the columns where A has one, one list
    per entry (r, t) there.  Each convolution term sum_i P_i[r][t] G_j[t][c]
    is then one C-level dot product of the reversed P list against the G
    list, and the level step B G_{k-1} (D G*_{k-1}) runs over the nonzero
    entries of B (D).  Each new entry is reduced once.  Through order n the
    route costs O(n^2 · |supp CGA| · s) multiplies at C speed plus
    O(n · nnz(B, D) · s) for the level steps, holds O(n s^2) coefficients,
    and takes no matrix product, series product or inverse, so it shares no
    product with the Laurent route or the oracle.  Only the Laurent route
    uses the floor-weight shift G*^-1 = G^-1 + (B - D) z, so the two routes
    reach G* by different formulas.  A negative ``order`` raises.
    """
    require_nonnegative(order)
    field, s = w.field, w.s
    red, rng, zero_row = field.reduce, range(s), [field.zero] * s
    g = [[[v] for v in row] for row in cm.identity(field, s)]
    gstar = [[[v] for v in row] for row in cm.identity(field, s)]
    c_rows = _row_entries(w.c)
    # Column t of A as its nonzero entries (v, A[v][t]).
    a_cols = [[(v, row[t]) for v, row in enumerate(w.a) if row[t]] for t in rng]
    mids = sorted({u for row in c_rows for u, _ in row})
    cols = [t for t in rng if a_cols[t]]
    # p[r]: the pairs (t, [P_0[r][t], P_1[r][t], ...]) over the support's row r.
    p = [[(t, []) for t in cols] if c_rows[r] else [] for r in rng]
    steps = ((g, _row_entries(w.b)), (gstar, _row_entries(w.d)))
    for k in range(1, order + 1):
        for x, level in steps:
            # Each P list holds P_0 .. P_{k-2}; reversed, map pairs P_{k-2-j}
            # with G_j and stops at G_{k-2}.
            new = []
            for r in rng:
                terms = [[v * e[k - 1] for e in x[t]] for t, v in level[r]]
                terms += [
                    [sum(map(mul, reversed(p_rt), e)) for e in x[t]] for t, p_rt in p[r]
                ]
                new.append([red(sum(col)) for col in zip(*terms)] if terms else zero_row)
            for row, new_row in zip(x, new):
                for entry, v in zip(row, new_row):
                    entry.append(v)
        # P_{k-1} = C (G_{k-1} A), G_{k-1} A only on the rows C reads.
        ga = {
            (u, t): sum(g[u][v][k - 1] * a for v, a in a_cols[t]) for u in mids for t in cols
        }
        for r in rng:
            for t, p_rt in p[r]:
                p_rt.append(red(sum(cv * ga[u, t] for u, cv in c_rows[r])))
    return GenFunBundle(_entry_major(field, s, g), _entry_major(field, s, gstar))


def laurent_route(w: BlockWeights, order: int) -> GenFunBundle:
    """Transition sums from the trimmed stream of step-symbol powers, then
    G = M0 - M1 X with M0 X = M-1, and G* from (I + G (B - D) z) G* = G."""
    m0, m1, mm1 = accumulate(w.field, w.a, w.b, w.c, order)
    gw = m0 - m1 * m0.solve(mm1)
    return GenFunBundle(gw, _starred(w, gw), m0=m0, m1=m1, mm1=mm1)


def first_difference(a, b):
    """Where two series first differ, comparing through the smaller order.

    None when they agree there; otherwise ``(n, entry)`` with n the least
    differing z-degree and, for matrix series, ``entry`` the 1-based
    ``(row, col)`` of the first differing entry of z^n in row-major order
    (None for scalar series).
    """
    for n, (x, y) in enumerate(zip(a.coeffs, b.coeffs)):
        if x != y:
            if isinstance(a, Series):
                return n, None
            cells = ((r, c) for r in range(a.s) for c in range(a.s))
            return n, next((r + 1, c + 1) for r, c in cells if x[r][c] != y[r][c])
    return None


def cross_check(
    spec: BandedSpec,
    order: int,
    weights: BlockWeights | None = None,
    oracle_length: int | None = None,
) -> tuple[dict, Series]:
    """Run every route and raise RouteMismatchError on the first disagreement.

    Returns the report document ``series`` prints, together with the checked
    corner series (the fixed-point route's), so callers that need it do not
    recompute it.  ``weights`` defaults to ``block_reduce(spec)``.

    The block routes and the oracle run on the integral weights L·w and are
    compared with each other there (a first disagreement sits at the same
    z^n either way); the direct route, on the original spec, is compared with
    their corner series divided back (z -> z / L).

    The oracle's depth defaults to min(order, 10), the ``oracle_length`` and
    ``orders_compared`` the report has always printed; pass
    ``oracle_length=0`` to reduce it to the trivial constant-term check.
    """
    if weights is None:
        weights = block_reduce(spec)
    den, weights = clear_denominators(weights)
    direct = direct_route(spec, order)
    fp = fixed_point_route(weights, order)
    lr = laurent_route(weights, order)
    c = weights.field.inv(den)
    fp_gv, lr_gv = fp.gv.scale_z(c), lr.gv.scale_z(c)
    if oracle_length is None:
        oracle_length = min(order, 10)
    sums = class_sums(weights, oracle_length)
    pairs = [
        ("direct_vs_fixed_point", direct, fp_gv),
        ("direct_vs_laurent", direct, lr_gv),
        ("fixed_point_vs_laurent_gw", fp.gw, lr.gw),
        ("fixed_point_vs_laurent_gwstar", fp.gwstar, lr.gwstar),
        ("oracle_vs_engine_gw", sums.gw, fp.gw),
        ("oracle_vs_engine_gwstar", sums.gwstar, fp.gwstar),
        ("oracle_vs_engine_m0", sums.m0, lr.m0),
        ("oracle_vs_engine_m1", sums.m1, lr.m1),
        ("oracle_vs_engine_mm1", sums.mm1, lr.mm1),
    ]
    checks = []
    for name, a, b in pairs:
        bad = first_difference(a, b)
        if bad is not None:
            n, entry = bad
            where = f"z^{n}" if entry is None else f"z^{n}, entry {entry}"
            raise RouteMismatchError(f"{name}: first disagreement at {where}", order=n)
        checks.append({"name": name, "orders_compared": min(a.order, b.order)})
    report = {
        "order": order, "oracle_length": oracle_length, "checks": checks, "status": "pass",
    }
    return report, fp_gv


# -- the step symbol's characteristic polynomial -------------------------------


def symbol_determinant(w: BlockWeights, z0):
    """Coefficients (by x-degree) of det(x I - z0 (A x^2 + B x + C)) at z = z0.

    The Leibniz sum over permutations, each term a product of s entries taken
    as :class:`~bandedgf.series.Series` in x to order 2s, which is exact:
    each entry has x-degree at most 2.  The terms are built row by row, and
    the signed partial terms that leave the same columns free are summed
    before the next row multiplies them (taking the k-th free column adds k
    inversions), so there are s 2^(s-1) products, not s · s!, and a zero
    entry is skipped.
    """
    field, s = w.field, w.s
    z0 = field.reduce(z0)
    pad = [field.zero] * (2 * s - 2)

    def entry(i, j):
        level = (field.one if i == j else field.zero) - z0 * w.b[i][j]
        return Series(field, [-z0 * w.c[i][j], level, -z0 * w.a[i][j], *pad])

    entries = [[entry(i, j) for j in range(s)] for i in range(s)]
    # sums[free]: the signed sum of the products over the rows above whose
    # columns leave ``free`` (ascending) for the rows below.
    sums = {tuple(range(s)): Series.one(field, 2 * s)}
    for row in entries:
        below = defaultdict(lambda: Series.zero(field, 2 * s))
        for free, term in sums.items():
            for k, j in enumerate(free):
                if not row[j].is_zero():
                    p = term * row[j]
                    below[free[:k] + free[k + 1 :]] += -p if k % 2 else p
        sums = below
    return sums[()].coeffs
