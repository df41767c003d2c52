"""The identity suite: every structural relation the routes must satisfy.

Each check recomputes one relation from computationally independent sides
(fixed-point vs Laurent, walk table vs corner powers, walk sums vs
algebra) and demands exact coefficient equality.  The suite returns a report
rather than raising, so a front-end can print every outcome; a clean run is
the strongest internal evidence the engine is telling the truth.

Every relation here is homogeneous under (z, A, B, C, D) -> (z / L, L A, L B,
L C, L D), and the reports print only the index of a first disagreement,
which that substitution keeps.  So over Q both entry points run on the
integral weights of :func:`~bandedgf.banded.clear_denominators` and print the
same reports as on the Fraction weights.
"""

from __future__ import annotations

from . import matrices as cm
from .banded import BlockWeights, clear_denominators, from_block_weights
from .engine import _first_mismatch, corner_first_columns, fixed_point_route, laurent_route
from .errors import InternalConsistencyError
from .fields import Field
from .laurent import trimmed_powers
from .matseries import MatrixSeries
from .section5 import check_descent_identities
from .walks import class_sums, u_table

DEFAULT_ENUM_LENGTH = 8


class IdentityCheck:
    def __init__(self, name: str, ok: bool, detail: str | None = None):
        self.name = name
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        flag = "ok" if self.ok else f"FAIL ({self.detail})"
        return f"IdentityCheck({self.name}: {flag})"


class IdentityReport:
    def __init__(self, order: int, enum_length: int, checks):
        self.order = order
        self.enum_length = enum_length
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self):
        return self.ok

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def to_json_doc(self):
        return {
            "order": self.order,
            "enumeration_length": self.enum_length,
            "identities": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "status": "pass" if self.ok else "fail",
        }


def _matrix_check(name, a, b):
    bad = _first_mismatch(a, b)
    if bad is None:
        return IdentityCheck(name, True)
    return IdentityCheck(name, False, f"first disagreement at z^{bad}")


def _shifted_const(field, s, mat, order):
    """mat * z as a matrix series of the given order."""
    coeffs = [cm.zeros(field, s)] * (order + 1)
    if order >= 1:
        coeffs = list(coeffs)
        coeffs[1] = mat
    return MatrixSeries(field, s, coeffs)


def _primitive_weight_sum(w: BlockWeights, gw: MatrixSeries, order: int) -> MatrixSeries:
    """First-return decomposition of the closed-walk primitive sum.

    A primitive closed walk is a lone level step, or an excursion strictly
    above its level (up step, translated standard loop, down step), or the
    mirror excursion strictly below, whose loop is the standard sum with the
    up and down weights swapped (reflection flips every step).
    """
    field, s = w.field, w.s
    swapped = BlockWeights(field, s, w.c, w.b, w.a, w.d)
    g_below = fixed_point_route(swapped, order).gw
    above = gw.lmul_const(w.c).rmul_const(w.a).mul_z_pow(2).truncate(order)
    below = g_below.lmul_const(w.a).rmul_const(w.c).mul_z_pow(2).truncate(order)
    return _shifted_const(field, s, w.b, order) + above + below


def _independent_step_multiply(field: Field, a, b, c, term):
    """Reference Laurent-term step product, written apart from the library's."""
    n = (len(term) - 1) // 2
    s = len(a)
    by_degree = {}
    for idx, mat in enumerate(term):
        d = idx - n
        for step_mat, shift in ((a, 1), (b, 0), (c, -1)):
            prod = cm.mul(field, step_mat, mat)
            key = d + shift
            by_degree[key] = (
                cm.add(field, by_degree[key], prod) if key in by_degree else prod
            )
    zero = cm.zeros(field, s)
    return tuple(by_degree.get(d, zero) for d in range(-(n + 1), n + 2))


def run_identity_suite(
    w: BlockWeights,
    order: int = 20,
    enum_length: int = DEFAULT_ENUM_LENGTH,
    rmax: int = 3,
) -> IdentityReport:
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
    h = _shifted_const(field, s, w.b, order) + (
        fp.gw.lmul_const(w.c).rmul_const(w.a).mul_z_pow(2).truncate(order)
    )
    checks.append(
        _matrix_check("primitive_decomposition_inverts", (ident - h) * lr.gw, ident)
    )

    # Quadratic relation satisfied by the standard walk sum.
    g = lr.gw
    residual = g - ident - g.lmul_const(w.b).mul_z_pow(1).truncate(order) - (
        (g.rmul_const(w.a) * g).lmul_const(w.c).mul_z_pow(2).truncate(order)
    )
    checks.append(
        _matrix_check("quadratic_residual", residual, MatrixSeries.zero(field, s, order))
    )

    # Level-step substitution at the floor: the starred sum from the walk
    # table (an independent recurrence) differs from G only by (B - D) z in
    # the inverse.
    table = u_table(w, order)
    gstar_u = table.series(1)
    shift = _shifted_const(field, s, cm.sub(field, w.b, w.d), order)
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
    term = (cm.identity(field, s),)
    enum_ok = True
    detail = None
    for n in range(depth + 1):
        if n:
            term = _independent_step_multiply(field, w.a, w.b, w.c, term)
        for k in range(-n, n + 1):
            if term[k + n] != sums.by_finish[n][-k]:
                enum_ok, detail = False, f"x^{k} coefficient differs at z^{n}"
                break
        if not enum_ok:
            break
    checks.append(IdentityCheck("walk_sums_match_symbol_powers", enum_ok, detail))
    rec_ok = True
    detail = None
    want = (cm.identity(field, s),)
    for n, got in enumerate(trimmed_powers(field, w.a, w.b, w.c, order)):
        cut = (len(want) - len(got)) // 2
        if cut < 0 or want[cut : len(want) - cut] != got:
            rec_ok, detail = False, f"step recursion fails at z^{n}"
            break
        want = _independent_step_multiply(field, w.a, w.b, w.c, got)
    checks.append(IdentityCheck("symbol_power_step_recursion", rec_ok, detail))

    # Geometric expansion of the central sum over primitive closed walks.
    j0 = _primitive_weight_sum(w, fp.gw, order)
    checks.append(
        _matrix_check("primitive_loop_geometric", lr.m0 * (ident - j0), ident)
    )
    checks.append(
        _matrix_check(
            "primitive_loop_enumeration", sums.j0, j0.truncate(min(order, enum_length))
        )
    )

    # The walk-sum table against scalar corner powers of the block pattern.
    spec = from_block_weights(w)
    count = s * (order + 2)
    columns = corner_first_columns(spec, order, count)
    table_ok = True
    detail = None
    for n in range(order + 1):
        col = columns[n]
        for k in range(order + 2):
            u = table.value(k + 1, n)
            for i in range(s):
                if col[i + s * k] != u[i][0]:
                    table_ok = False
                    detail = f"entry ({i + s * k + 1},1) of power {n} differs"
                    break
            if not table_ok:
                break
        if not table_ok:
            break
    checks.append(IdentityCheck("walk_table_matches_corner_powers", table_ok, detail))

    # Descent factorization: walks from k peel off as G (A z) walks from k-1.
    gaz = fp.gw.rmul_const(w.a).mul_z_pow(1).truncate(order)
    ok = True
    detail = None
    for k in range(1, 5):
        lhs = table.series(k + 1)
        rhs = gaz * table.series(k)
        bad = _first_mismatch(lhs, rhs)
        if bad is not None:
            ok, detail = False, f"k={k}: first disagreement at z^{bad}"
            break
    checks.append(IdentityCheck("descent_factorization", ok, detail))

    # The binomially weighted ladder identities.
    try:
        check_descent_identities(w, rmax, table, fp)
        checks.append(IdentityCheck("weighted_ladder", True))
    except InternalConsistencyError as exc:
        checks.append(IdentityCheck("weighted_ladder", False, str(exc)))

    return IdentityReport(order, min(order, enum_length), checks)


class OracleReport:
    def __init__(self, length: int, checks):
        self.length = length
        self.checks = list(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self):
        return self.ok

    def to_json_doc(self):
        return {
            "length": self.length,
            "comparisons": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
            "status": "pass" if self.ok else "fail",
        }


def oracle_comparison(w: BlockWeights, length: int) -> OracleReport:
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
    h_engine = _shifted_const(field, s, w.b, length) + (
        fp.gw.lmul_const(w.c).rmul_const(w.a).mul_z_pow(2).truncate(length)
    )
    hstar_engine = ident - fp.gwstar.inverse()
    j0_engine = ident - lr.m0inv
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
    checks = [_matrix_check(name, a, b.truncate(length)) for name, a, b in pairs]
    return OracleReport(length, checks)
