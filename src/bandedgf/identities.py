"""The identity suite, the oracle comparison, and the one report they return.

Each check recomputes one relation from computationally independent sides
(fixed-point vs Laurent, walk table vs corner powers, walk sums vs
algebra) and demands exact coefficient equality.  A check carries only what
failed, or None when it held; the suite, the oracle comparison and
:func:`~bandedgf.fixtures.run_checks` all return a :class:`CheckReport` of
such checks rather than raising, so a front-end can print every outcome; a
clean run is the strongest internal evidence the engine is telling the truth.

The symbol-power checks multiply by the step polynomial with the suite's own
reference step, :func:`_independent_step_multiply`: a loop over the nonzero
entries of A, B and C that shares nothing with the Laurent stream or the
walk passes, and computes only the x-degrees a check compares.

Every relation here is homogeneous under (z, A, B, C, D) -> (z / L, L A, L B,
L C, L D), and the reports print only the index of a first disagreement,
which that substitution keeps.  So over Q both entry points run on the
integral weights of :func:`~bandedgf.banded.clear_denominators` and print the
same reports as on the Fraction weights.
"""

from __future__ import annotations

from itertools import chain, repeat

from . import matrices as cm
from .banded import BlockWeights, clear_denominators, from_block_weights
from .engine import corner_first_columns, first_difference, fixed_point_route, laurent_route
from .fields import Field
from .laurent import trimmed_powers
from .matseries import MatrixSeries
from .walks import UTable, class_sums, u_table

DEFAULT_ENUM_LENGTH = 8
# The weighted ladder is checked for G*_0 .. G*_{LADDER_RMAX + 1}.
LADDER_RMAX = 3


class IdentityCheck:
    """A named check: ``detail`` says what failed, or is None when it held."""

    def __init__(self, name: str, detail: str | None = None):
        self.name = name
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.detail is None

    def __repr__(self):
        flag = "ok" if self.ok else f"FAIL ({self.detail})"
        return f"IdentityCheck({self.name}: {flag})"


class CheckReport:
    """Checks under a header; its JSON lists them under ``key`` beside the header."""

    def __init__(self, header: dict, key: str, checks):
        self.header = header
        self.key = key
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_json_doc(self):
        return {
            **self.header,
            self.key: [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "status": "pass" if self.ok else "fail",
        }


def _matrix_check(name, a, b):
    bad = first_difference(a, b)
    return IdentityCheck(name, None if bad is None else f"first disagreement at z^{bad[0]}")


def _primitive_standard_sum(w: BlockWeights, gw: MatrixSeries) -> MatrixSeries:
    """H = B z + C G A z^2: a level step, or an up step, a standard loop, a down step."""
    level = MatrixSeries.from_const(w.field, w.b, gw.order).shift(1)
    return level + gw.lmul_const(w.c).rmul_const(w.a).shift(2)


def _primitive_weight_sum(w: BlockWeights, h: MatrixSeries) -> MatrixSeries:
    """First-return decomposition of the closed-walk primitive sum.

    A primitive closed walk is a lone level step or an excursion strictly
    above its level (up step, translated standard loop, down step), which
    together make the primitive standard sum ``h``, or the mirror excursion
    strictly below, whose loop is the standard sum with the up and down
    weights swapped (reflection flips every step).
    """
    swapped = BlockWeights(w.field, w.s, w.c, w.b, w.a, w.d)
    g_below = fixed_point_route(swapped, h.order).gw
    return h + g_below.lmul_const(w.a).rmul_const(w.c).shift(2)


def _independent_step_multiply(field: Field, a, b, c, term, radius: int):
    """The x^-radius .. x^radius coefficients of (A x + B + C x^-1) times the
    Laurent term ``term`` (its x^-n .. x^n coefficients), as a tuple of
    matrices: the suite's reference step, written apart from the library's.

    Coefficient x^d sums A term_(d-1) + B term_d + C term_(d+1) over the
    source degrees the term holds, each product formed through the nonzero
    entries of the step matrix, entry by entry; each entry is reduced once.
    """
    n, s = (len(term) - 1) // 2, len(a)
    rng = range(s)
    steps = [
        (shift, [(i, t, v) for i in rng for t in rng if (v := mat[i][t])])
        for mat, shift in ((a, 1), (b, 0), (c, -1))
    ]
    red = field.reduce
    out = []
    for d in range(-radius, radius + 1):
        acc = [[0] * s for _ in rng]
        for shift, nonzero in steps:
            e = d - shift
            if -n <= e <= n:
                src = term[e + n]
                for i, t, v in nonzero:
                    row, src_row = acc[i], src[t]
                    for j in rng:
                        row[j] += v * src_row[j]
        out.append(tuple(tuple(red(x) for x in row) for row in acc))
    return tuple(out)


def _walk_sums_failure(field: Field, w: BlockWeights, sums, depth: int):
    """The oracle's walk sums by endpoint against the independent full terms."""
    term = (cm.identity(field, w.s),)
    for n in range(depth + 1):
        if n:
            term = _independent_step_multiply(field, w.a, w.b, w.c, term, n)
        for k in range(-n, n + 1):
            if term[k + n] != sums.by_finish[n][-k]:
                return f"x^{k} coefficient differs at z^{n}"
    return None


def _step_recursion_failure(field: Field, w: BlockWeights, order: int):
    """Each trimmed term of the library's stream against the independent step
    of the term before, computed only in the next term's window
    min(n + 1, order - n)."""
    want = (cm.identity(field, w.s),)
    for n, got in enumerate(trimmed_powers(field, w.a, w.b, w.c, order)):
        if want != got:
            return f"step recursion fails at z^{n}"
        want = _independent_step_multiply(field, w.a, w.b, w.c, got, min(n + 1, order - n))
    return None


def _corner_table_failure(table, columns, s: int, order: int):
    """The first columns of the corner powers, streamed and each reduced
    (over F_p they come unreduced), against the walk table's rows
    1..s(order + 2); rows past a column's frontier count as zero."""
    field = table.field
    for n, column in enumerate(columns):
        entries = chain(field.reduce_all(column), repeat(field.zero))
        for k in range(order + 2):
            u = table.value(k + 1, n)
            for i, v in zip(range(s), entries):
                if v != u[i][0]:
                    return f"entry ({i + s * k + 1},1) of power {n} differs"
    return None


def check_descent_identities(
    table: UTable, gaz: MatrixSeries, gwstar: MatrixSeries, rmax: int
):
    """Verify the two ladder identities tying G*_r to the plain walk sums.

    ``table`` is the walk table, ``gaz`` is G A z and ``gwstar`` the starred
    sum G*, all to one order.  Checks (I - G A z) G*_0 = G* and
    (I - G A z) G*_{r+1} = G A z G*_r for r = 0..rmax, on the ladder
    ``table.binomial_sums(rmax + 1)``.  Returns the first identity that
    fails, as text, or None when both hold; a failure means an
    implementation bug.
    """
    ladder = table.binomial_sums(rmax + 1)
    lead = MatrixSeries.identity(gaz.field, gaz.s, gaz.order) - gaz
    if lead * ladder[0] != gwstar.truncate(gaz.order):
        return "(I - G A z) G*_0 differs from the starred walk sum"
    return next(
        (
            f"(I - G A z) G*_{r + 1} differs from G A z G*_{r}"
            for r in range(rmax + 1)
            if lead * ladder[r + 1] != gaz * ladder[r]
        ),
        None,
    )


def run_identity_suite(
    w: BlockWeights,
    order: int = 20,
    enum_length: int = DEFAULT_ENUM_LENGTH,
) -> CheckReport:
    _, w = clear_denominators(w)
    field, s = w.field, w.s
    checks = []
    fp = fixed_point_route(w, order)
    lr = laurent_route(w, order)
    ident = MatrixSeries.identity(field, s, order)

    # The two polynomial-time routes to the standard walk sum must agree.
    checks.append(
        _matrix_check("standard_from_unrestricted_sums", fp.gw, lr.gw)
    )
    checks.append(
        _matrix_check("starred_route_agreement", fp.gwstar, lr.gwstar)
    )

    # Primitive decomposition: H = Bz + C G A z^2 inverts G geometrically.
    h = _primitive_standard_sum(w, fp.gw)
    checks.append(
        _matrix_check("primitive_decomposition_inverts", (ident - h) * lr.gw, ident)
    )

    # Quadratic relation G = I + B G z + C G A G z^2 of the standard walk sum.
    g = lr.gw
    gag = (g.rmul_const(w.a) * g).lmul_const(w.c)
    checks.append(
        _matrix_check("quadratic_residual", g, ident + g.lmul_const(w.b).shift(1) + gag.shift(2))
    )

    # Level-step substitution at the floor: the starred sum from the walk
    # table (an independent recurrence) differs from G only by (B - D) z in
    # the inverse.
    table = u_table(w, order)
    gstar_u = table.series(1)
    shift = MatrixSeries.from_const(field, cm.sub(field, w.b, w.d), order).shift(1)
    checks.append(
        _matrix_check(
            "floor_weight_shift", gstar_u.inverse() - fp.gw.inverse(), shift
        )
    )
    checks.append(_matrix_check("starred_table_agreement", gstar_u, fp.gwstar))

    # Walk sums against powers of the step symbol: the walk-sum oracle to
    # depth min(order, enum_length) at every x-degree of full terms built with
    # an independently written term product (a walk from k to 0 translates to
    # a walk from 0 to -k); then every trimmed step of the library's stream at
    # full order against that product, cut to the next term's window.
    depth = min(order, enum_length)
    sums = class_sums(w, depth)
    checks.append(
        IdentityCheck("walk_sums_match_symbol_powers", _walk_sums_failure(field, w, sums, depth))
    )
    checks.append(
        IdentityCheck("symbol_power_step_recursion", _step_recursion_failure(field, w, order))
    )

    # Geometric expansion of the central sum over primitive closed walks.
    j0 = _primitive_weight_sum(w, h)
    checks.append(
        _matrix_check("primitive_loop_geometric", lr.m0 * (ident - j0), ident)
    )
    checks.append(_matrix_check("primitive_loop_enumeration", sums.j0, j0))

    # The walk-sum table against scalar corner powers of the block pattern.
    columns = corner_first_columns(from_block_weights(w), order)
    checks.append(
        IdentityCheck(
            "walk_table_matches_corner_powers", _corner_table_failure(table, columns, s, order)
        )
    )

    # Descent factorization: walks from k peel off as G (A z) walks from k-1.
    gaz = fp.gw.rmul_const(w.a).shift(1)
    descents = (
        (k, first_difference(table.series(k + 1), gaz * table.series(k))) for k in range(1, 5)
    )
    descent_failure = next(
        (f"k={k}: first disagreement at z^{bad[0]}" for k, bad in descents if bad is not None),
        None,
    )
    checks.append(IdentityCheck("descent_factorization", descent_failure))

    # The binomially weighted ladder identities.
    checks.append(
        IdentityCheck(
            "weighted_ladder", check_descent_identities(table, gaz, fp.gwstar, LADDER_RMAX)
        )
    )

    header = {"order": order, "enumeration_length": depth}
    return CheckReport(header, "identities", checks)


def oracle_comparison(w: BlockWeights, length: int) -> CheckReport:
    """The walk-sum oracle against every engine output, to the given length.

    Covers the plain and starred standard sums, their primitive parts, the
    three transition sums, and the primitive closed-walk sum.
    """
    _, w = clear_denominators(w)
    field, s = w.field, w.s
    sums = class_sums(w, length)
    fp = fixed_point_route(w, length)
    lr = laurent_route(w, length)
    ident = MatrixSeries.identity(field, s, length)
    h_engine = _primitive_standard_sum(w, fp.gw)
    hstar_engine = ident - fp.gwstar.inverse()
    j0_engine = ident - lr.m0.inverse()
    pairs = [
        ("standard_sum", sums.gw, fp.gw),
        ("starred_standard_sum", sums.gwstar, fp.gwstar),
        ("primitive_standard_sum", sums.hw, h_engine),
        ("starred_primitive_standard_sum", sums.hwstar, hstar_engine),
        ("central_transition_sum", sums.m0, lr.m0),
        ("down_transition_sum", sums.m1, lr.m1),
        ("up_transition_sum", sums.mm1, lr.mm1),
        ("primitive_loop_sum", sums.j0, j0_engine),
    ]
    checks = [_matrix_check(name, a, b) for name, a, b in pairs]
    return CheckReport({"length": length}, "comparisons", checks)
