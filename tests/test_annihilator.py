import fractions
import math
import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from bandedgf import annihilator, fixtures
from bandedgf.annihilator import (
    AnnihilatorPoly,
    ClosedForm,
    certify,
    check_closed_form_sqrt,
    reconstruct,
    require_order,
    verify,
    _basis,
    _first_dependent,
    _head_nullspace,
    _nullspace,
    powers,
)
from bandedgf.banded import BandedSpec, BlockWeights, block_reduce, clear_spec
from bandedgf.engine import direct_route, fixed_point_route
from bandedgf.errors import InsufficientPrecisionError, NonUnitError
from bandedgf.fields import PrimeField, QQ, RationalField, cleared, denominator
from bandedgf.series import Series

from helpers import (
    reference_evaluate,
    reference_expand,
    reference_head_nullspace,
    reference_system,
)


def motzkin_series(order):
    w = BlockWeights(QQ, 1, [[1]], [[1]], [[1]], [[1]])
    return fixed_point_route(w, order).gv


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        AnnihilatorPoly(QQ, [[0, 0], [0, 0]])


def test_canonicalization_trims_and_scales():
    p = AnnihilatorPoly(QQ, [
        [Fraction(1, 2), -1, Fraction(1, 2), 0],
        [0, Fraction(1, 2), 0, 0],
        [0, 0, 0, 0],
    ])
    assert (p.dx, p.dz) == (1, 2)
    assert p.coeffs == ((1, -2, 1), (0, 1, 0))


def test_canonical_sign_follows_leading_entry():
    p = AnnihilatorPoly(QQ, [[2], [-4]])
    assert p.coeffs == ((-1,), (2,))


def test_prime_field_canonicalization_makes_leading_one():
    f = PrimeField(7)
    p = AnnihilatorPoly(f, [[3, 1], [0, 5]])
    assert p.coeffs[1][1] == 1


def test_reconstruct_motzkin_quadratic():
    g = motzkin_series(40)
    p = reconstruct(g, 2, 2)
    assert p == AnnihilatorPoly(QQ, [[1], [-1, 1], [0, 0, 1]])
    assert p.pretty() == "(z^2)*x^2 + (z - 1)*x + 1"


def test_motzkin_low_order_hand_check():
    # The first residual orders vanish already for the truncation 1 + z + 2z^2.
    p = AnnihilatorPoly(QQ, [[1], [-1, 1], [0, 0, 1]])
    g = Series.from_ints(QQ, [1, 1, 2], order=2)
    assert p.evaluate(g).coeffs == (0, 0, 0)


def test_reconstruct_first_example_cubic():
    spec = fixtures.ex41_spec()
    g = fixed_point_route(block_reduce(spec, 2), 60).gv
    p = reconstruct(g, 3, 5)
    assert p == fixtures.ex41_annihilator()


def test_reconstruct_second_example_cubic():
    spec = fixtures.ex42_spec()
    g = fixed_point_route(block_reduce(spec, 4), 60).gv
    p = reconstruct(g, 3, 7)
    assert p == fixtures.ex42_annihilator()


def test_reconstruct_demands_enough_orders():
    g = motzkin_series(30)
    with pytest.raises(InsufficientPrecisionError):
        reconstruct(g, 3, 5)
    # require_order is the one bounds check: reconstruct and certify refuse through it.
    for dx, dz in ((0, 1), (1, -1)):
        for call in (
            lambda: require_order(30, dx, dz, 0),
            lambda: reconstruct(g, dx, dz, 0),
            lambda: certify(g, 30, dx, dz, 0, 1),
        ):
            with pytest.raises(ValueError, match="need dx >= 1 and dz >= 0"):
                call()


def test_reconstruct_returns_none_for_transcendental_prefix():
    # Factorials grow too fast to satisfy any small algebraic relation.
    g = Series.from_ints(QQ, [math.factorial(n) for n in range(46)])
    assert reconstruct(g, 2, 3, guard=20) is None


def test_reconstruction_is_stable_across_orders():
    spec = fixtures.ex41_spec()
    g80 = fixed_point_route(block_reduce(spec, 2), 80).gv
    p1 = reconstruct(g80.truncate(60), 3, 5)
    p2 = reconstruct(g80, 3, 5)
    assert p1 == p2


def test_reconstruction_over_prime_field():
    f = PrimeField(101)
    w = BlockWeights(f, 1, [[1]], [[1]], [[1]], [[1]])
    g = fixed_point_route(w, 40).gv
    p = reconstruct(g, 2, 2)
    assert p == AnnihilatorPoly(f, [[1], [-1, 1], [0, 0, 1]])


def test_verify_passes_and_reports_extended_order():
    spec = fixtures.ex41_spec()
    g = fixed_point_route(block_reduce(spec, 2), 100).gv
    res = verify(fixtures.ex41_annihilator(), g)
    assert res and res.checked_order == 100


def test_verify_catches_single_coefficient_perturbation():
    g = motzkin_series(40)
    good = AnnihilatorPoly(QQ, [[1], [-1, 1], [0, 0, 1]])
    assert verify(good, g)
    for i in range(3):
        for j in range(3):
            grid = [list(row) + [0] * (3 - len(row)) for row in
                    ([1], [-1, 1], [0, 0, 1])]
            grid[i][j] += 1
            bad = AnnihilatorPoly(QQ, grid)
            res = verify(bad, g)
            assert not res
            assert res.first_bad_order is not None and res.first_bad_order <= 4


def test_soundness_on_corpus_with_extended_order():
    for name, golden, s in (
        ("ex4.1", fixtures.ex41_annihilator(), 2),
        ("ex4.2", fixtures.ex42_annihilator(), 4),
    ):
        spec = fixtures.example_spec(name)
        needed = (golden.dx + 1) * (golden.dz + 1) + 20
        g = fixed_point_route(block_reduce(spec, s), needed + 40).gv
        assert verify(golden, g)


def reference_pivots(field, rows, ncols):
    """Gauss-Jordan with the field's own operations (Fractions over Q): the
    reduced rows and the pivot columns."""
    m = [[field.reduce(c) for c in row] for row in rows]
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [field.div(v, m[r][c]) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [field.reduce(a - f * b) for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def reference_nullspace(field, rows, ncols):
    """First free column of Gauss-Jordan and its dependency, or None."""
    m, piv_cols = reference_pivots(field, rows, ncols)
    free = [c for c in range(ncols) if c not in piv_cols]
    if not free:
        return None
    fc = free[0]
    x = [field.zero] * ncols
    x[fc] = field.one
    for idx, pc in enumerate(piv_cols):
        x[pc] = field.reduce(-m[idx][fc])
    return fc, x


def integral_rows(field, rows):
    """Rows as ``_nullspace`` takes them: over Q, each times its lcm."""
    if field.characteristic:
        return rows
    out = []
    for row in rows:
        den = lcm(*(Fraction(c).denominator for c in row))
        out.append([int(c * den) for c in row])
    return out


def normalised_at(field, v, k):
    """The vector v scaled to 1 at index k."""
    return [field.div(a, v[k]) for a in v]


def test_nullspace_rational_against_fraction_reference():
    # One elimination, over Q and F_p, against plain Gauss-Jordan: the basis
    # annihilates every row, has one vector per free column (scaled to 1
    # there, 0 at the other free columns), and a read in a random column
    # order, of all columns or some, gives the first free column and, scaled
    # to 1 there, the dependency of a Gauss-Jordan run on the columns
    # permuted into that order.
    rng = random.Random(55)
    for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(101)):
        for trial in range(40):
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 7)
            if field.characteristic:
                rows = [[rng.randrange(field.p) for _ in range(ncols)] for _ in range(nrows)]
            else:
                rows = [
                    [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(ncols)]
                    for _ in range(nrows)
                ]
            if rng.random() < 0.5 and nrows >= 2:
                rows[-1] = [field.reduce(2 * v) for v in rows[0]]
            basis = _nullspace(field, integral_rows(field, rows), ncols)
            free = [c for c in range(ncols) if c not in reference_pivots(field, rows, ncols)[1]]
            assert len(basis) == len(free)
            for f, v in zip(free, basis):
                assert [normalised_at(field, v, f)[c] for c in free] == [int(c == f) for c in free]
                for row in rows:
                    assert field.reduce(sum(c * x for c, x in zip(row, v))) == 0
            cols = rng.sample(range(ncols), rng.choice((ncols, rng.randrange(1, ncols + 1))))
            permuted = [[row[c] for c in cols] for row in rows]
            got = _first_dependent(field, basis, cols)
            if got is not None:
                got = (got[0], normalised_at(field, got[1], got[0]))
            assert got == reference_nullspace(field, permuted, len(cols))


# The per-bound scan that reconstruct replaced, kept as its reference: each
# candidate bound builds its own system and takes the first free column of a
# full elimination.

def reference_solve(g, powers, dx, dz):
    ncols = (dx + 1) * (dz + 1)
    nrows = g.order + 1
    field = g.field
    zero = field.zero
    rows = []
    for n in range(nrows):
        row = []
        for i in range(dx + 1):
            gi = powers[i].coeffs
            for j in range(dz + 1):
                row.append(gi[n - j] if n >= j else zero)
        rows.append(row)
    if field.characteristic:
        return reference_nullspace_mod_p(rows, ncols, field.p)
    return reference_nullspace_rational(rows, ncols)


def reference_nullspace_mod_p(rows, ncols, p):
    m = [list(r) for r in rows]
    nrows = len(m)
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in piv_cols]
    if not free:
        return None
    fc = free[0]
    x = [0] * ncols
    x[fc] = 1
    for row_idx, pc in enumerate(piv_cols):
        x[pc] = (-m[row_idx][fc]) % p
    return x


def reference_nullspace_rational(rows, ncols):
    m = []
    for row in rows:
        den = lcm(*(c.denominator for c in row)) if row else 1
        m.append([int(c * den) for c in row])
    nrows = len(m)
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pivot = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mi, mr = m[i], m[r]
            for j in range(c + 1, ncols):
                mi[j] = (mi[j] * pivot - mic * mr[j]) // prev
            mi[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in piv_cols]
    if not free:
        return None
    fc = free[0]
    x = [Fraction(0)] * ncols
    x[fc] = Fraction(1)
    for row_idx in range(len(piv_cols) - 1, -1, -1):
        pc = piv_cols[row_idx]
        row = m[row_idx]
        acc = sum((Fraction(row[j]) * x[j] for j in range(pc + 1, ncols)), Fraction(0))
        x[pc] = -acc / row[pc]
    return x


def reference_reconstruct(g, dx, dz):
    powers = [Series.one(g.field, g.order)]
    for _ in range(dx):
        powers.append(powers[-1] * g)
    found_dx = next(
        (b for b in range(1, dx + 1) if reference_solve(g, powers, b, dz) is not None), None
    )
    if found_dx is None:
        return None
    for dzp in range(dz + 1):
        sol = reference_solve(g, powers, found_dx, dzp)
        if sol is not None:
            grid = [
                [sol[i * (dzp + 1) + j] for j in range(dzp + 1)]
                for i in range(found_dx + 1)
            ]
            return AnnihilatorPoly(g.field, grid)
    raise AssertionError("solution vanished between scans")


@st.composite
def reconstruction_cases(draw):
    field = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(3), PrimeField(101))))
    dx = draw(st.integers(1, 4))
    dz = draw(st.integers(0, 5))
    guard = draw(st.sampled_from((0, 1, 20)))
    order = (dx + 1) * (dz + 1) + guard

    def scalar():
        if field.characteristic:
            return draw(st.integers(0, field.p - 1))
        return field.reduce(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))

    kind = draw(st.sampled_from(("route", "polynomial", "prefix", "periodic", "rational")))
    if kind == "route":
        s = draw(st.integers(1, 2))
        blocks = [[[scalar() for _ in range(s)] for _ in range(s)] for _ in range(4)]
        g = fixed_point_route(BlockWeights(field, s, *blocks), order).gv
    elif kind == "polynomial":
        coeffs = [scalar() for _ in range(draw(st.integers(1, 4)))]
        g = Series(field, (coeffs + [0] * order)[: order + 1])
    elif kind == "prefix":
        valuation = draw(st.integers(0, 3))
        g = Series(field, [0] * valuation + [scalar() for _ in range(order + 1 - valuation)])
    elif kind == "periodic":
        # P(z) / (1 - z^q): relations at several degrees, so nullspaces of
        # dimension two or more whenever the bounds leave room.
        period = [scalar() for _ in range(draw(st.integers(1, 3)))]
        g = Series(field, (period * (order + 1))[: order + 1])
    else:
        # 1 / (1 - c z^k).
        c, k = scalar(), draw(st.integers(1, 3))
        g = Series(field, [field.reduce(c ** (n // k)) if n % k == 0 else 0
                           for n in range(order + 1)])
    return g, dx, dz, guard


@settings(max_examples=150, deadline=None)
@given(reconstruction_cases())
def test_reconstruct_matches_the_per_bound_scan(case):
    g, dx, dz, guard = case
    assert reconstruct(g, dx, dz, guard=guard) == reference_reconstruct(g, dx, dz)


def test_reconstruct_keeps_the_scan_choice_among_several_solutions():
    # These prefixes (bounds (4, 5), guard 0) each have two solutions at the
    # least degrees (4, 5) that are not proportional.  The scan's choice is
    # the first free column in (i, j) order, which the (j, i) pass alone
    # does not give.
    cases = (
        (2, [0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0,
             0, 1, 1, 1, 1, 0],
         [[0, 0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 0, 1], [1, 0, 1]],
         [[0, 0, 0, 0, 0, 1], [], [0, 1], [], [0, 1, 0, 1]]),
        (3, [0, 0, 1, 0, 2, 2, 2, 1, 1, 1, 2, 1, 2, 2, 2, 2, 1, 2, 1, 1, 1, 0, 1, 2, 1,
             0, 0, 2, 0, 0, 1],
         [[0, 0, 2, 0, 0, 1], [1, 0, 1, 1], [0, 2, 0, 0, 1, 2], [2, 2, 0, 0, 1, 1],
          [1, 2, 2, 1]],
         [[0, 0, 2, 2], [1, 1, 2, 1, 1, 2], [2, 1, 1, 1, 1, 2], [0, 0, 1, 0, 2],
          [0, 1, 1, 2, 1]]),
    )
    for p, prefix, scan, other in cases:
        field = PrimeField(p)
        g = Series(field, prefix)
        want, other = AnnihilatorPoly(field, scan), AnnihilatorPoly(field, other)
        assert (want.dx, want.dz) == (other.dx, other.dz) == (4, 5)
        assert want != other and verify(want, g) and verify(other, g)
        assert reconstruct(g, 4, 5, guard=0) == want == reference_reconstruct(g, 4, 5)


def test_reconstruct_runs_one_elimination(monkeypatch):
    # The system is reduced to its nullspace basis exactly once per call,
    # whether a polynomial is found or not; the degree searches only read the
    # basis.  Rows 0..dz pivot on the g^0 columns and are solved outright, so
    # the eliminated system has the n - dz rows dz+1..n: 54 at (n, dz) =
    # (60, 6), 42 at (45, 3).
    calls = []

    def counting(field, rows, ncols):
        calls.append(len(rows))
        return _nullspace(field, rows, ncols)

    monkeypatch.setattr(annihilator, "_nullspace", counting)
    g = motzkin_series(60)
    assert reconstruct(g, 4, 6) == AnnihilatorPoly(QQ, [[1], [-1, 1], [0, 0, 1]])
    assert calls == [54]
    calls.clear()
    prefix = Series.from_ints(QQ, [math.factorial(n) for n in range(46)])
    assert reconstruct(prefix, 2, 3) is None
    assert calls == [42]


# -- head elimination: _nullspace against the full elimination of every row --

NULLSPACE_FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1))


def cleared_rows(field, rows):
    """Rows as ``_system`` hands them to ``_nullspace``: each cleared to ints."""
    out = []
    for row in rows:
        den = denominator(row)
        out.append([cleared(c, den) for c in row])
    return out


@st.composite
def low_rank_systems(draw):
    """Rows of rank at most ``rank``, each a random combination of ``rank`` base
    rows; the rows before ``late`` use only half of the base, so a head that
    ends before it can admit kernel vectors that later rows kill.  Over Q the
    rows are integral from the start or cleared from fractions."""
    field = draw(st.sampled_from(NULLSPACE_FIELDS))
    ncols = draw(st.integers(1, 9))
    rank = draw(st.integers(0, ncols))
    nrows = draw(st.integers(0, 45))
    late = draw(st.integers(0, nrows))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if field.characteristic:
        def scalar():
            return rng.randrange(field.p)
    elif draw(st.booleans()):
        def scalar():
            return rng.randrange(-6, 7)
    else:
        def scalar():
            return Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    base = [[scalar() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for n in range(nrows):
        used = base[: rank // 2] if n < late else base
        coef = [scalar() for _ in used]
        rows.append([field.reduce(sum(c * b[j] for c, b in zip(coef, used))) for j in range(ncols)])
    return field, cleared_rows(field, rows), ncols


@settings(max_examples=200, deadline=None)
@given(case=low_rank_systems())
def test_nullspace_is_the_full_elimination_basis(case):
    field, rows, ncols = case
    assert _nullspace(field, rows, ncols) == _head_nullspace(field, rows, ncols)


@settings(max_examples=300, deadline=None)
@given(case=low_rank_systems())
# Rank 0, and a rank-1 system whose pivot is not 1, over Q and F_101.
@example(case=(QQ, [[0, 0, 0]] * 3, 3))
@example(case=(QQ, [[0, 6, 4, 2], [0, 9, 6, 3]], 4))
@example(case=(PrimeField(101), [[0, 6, 4, 2], [0, 9, 6, 3], [5, 0, 0, 1]], 4))
# Over F_5 the first pivot leaves row 1 as the unreduced (0, 1 - 2·3, 1) =
# (0, -5, 1): a pivot search on the raw -5 would pick it at column 1, where
# its residue is 0; the search on residues leaves column 1 free.
@example(case=(PrimeField(5), [[1, 3, 0], [2, 1, 1]], 3))
def test_head_nullspace_is_the_field_division_reference_up_to_scale(case):
    # The same vectors as the elimination that divides in the field at every
    # back-substitution step: each integral vector, scaled to 1 at its free
    # column (the reference vector's last nonzero entry), is the reference's.
    # Over Q each vector is primitive and positive there; over F_p it is 1.
    field, rows, ncols = case
    basis = _head_nullspace(field, rows, ncols)
    want = reference_head_nullspace(field, rows, ncols)
    assert len(basis) == len(want)
    for v, ref in zip(basis, want):
        f = max(c for c, a in enumerate(ref) if a)
        assert all(type(a) is int for a in v)
        assert normalised_at(field, v, f) == ref
        if field.characteristic:
            assert v[f] == 1
        else:
            assert v[f] > 0 and math.gcd(*v) == 1


def eliminated_matrix(field, rows, ncols):
    """The matrix ``m`` as the elimination of ``_head_nullspace`` leaves it."""
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is _head_nullspace.__code__:
            seen.append(frame.f_locals["m"])

    sys.setprofile(profile)
    try:
        _head_nullspace(field, rows, ncols)
    finally:
        sys.setprofile(None)
    return seen[0]


@settings(max_examples=200, deadline=None)
@given(case=low_rank_systems().filter(lambda case: case[0].characteristic))
def test_head_nullspace_over_fp_keeps_entries_below_one_update_per_column(case):
    # Rows below the pivot are updated as a - mult·b with mult and b reduced
    # and no reduction after, so an entry, below p on entry, takes at most
    # ncols updates of size below p^2 each.
    field, rows, ncols = case
    p = field.p
    m = eliminated_matrix(field, rows, ncols)
    assert all(abs(a) < p + ncols * p * p for row in m for a in row)


def test_head_nullspace_over_fp_leaves_rows_below_the_pivot_unreduced():
    m = eliminated_matrix(PrimeField(5), [[1, 3, 0], [2, 1, 1]], 3)
    assert m == [[1, 3, 0], [0, -5, 1]]


def count_head_eliminations(monkeypatch):
    heads = []
    real = annihilator._head_nullspace

    def counted(field, rows, ncols):
        heads.append(len(rows))
        return real(field, rows, ncols)

    monkeypatch.setattr(annihilator, "_head_nullspace", counted)
    return heads


def test_nullspace_eliminates_again_when_a_tail_row_kills_a_head_vector(monkeypatch):
    # The square head, the first 4 rows, spans only (1, 1, 0, 0), so it
    # admits (1, -1, 0, 0), (0, 0, 1, 0) and (0, 0, 0, 1).  Row 20 kills the
    # first, and the head grows through it to 21 rows; row 40 kills the
    # second, and the head doubles to 42 rows, after which the last three
    # rows pass.  Only (0, 0, 0, 1) is left, as in the full elimination.
    heads = count_head_eliminations(monkeypatch)
    rows = (
        [[1, 1, 0, 0]] * 20 + [[0, 1, 0, 0]] + [[0, 0, 0, 0]] * 19 + [[1, 0, 1, 0]]
        + [[2, 2, 0, 0]] * 4
    )
    for field in NULLSPACE_FIELDS:
        heads.clear()
        basis = _nullspace(field, rows, 4)
        assert basis == _head_nullspace(field, rows, 4) == [[0, 0, 0, 1]]
        assert heads == [4, 21, 42]


def test_reconstruct_rejects_a_relation_that_holds_only_through_the_head(monkeypatch):
    # 1/(1-z) + z^40 satisfies (1 - z) x - 1 = 0 through z^39.  At bounds
    # (1, 1) the g^0 columns are solved outright, so the eliminated system
    # starts at row 2 over 2 columns: its square head of 2 rows (rows 2..3)
    # admits the relation, and row 40, its 39th, kills it; the head then
    # grows through that row.
    heads = count_head_eliminations(monkeypatch)
    coeffs = [1] * 61
    coeffs[40] = 2
    g = Series(QQ, coeffs)
    assert reconstruct(g, 1, 1) is None is reference_reconstruct(g, 1, 1)
    assert heads == [2, 39]
    heads.clear()
    assert reconstruct(g.truncate(39), 1, 1, guard=0) == AnnihilatorPoly(QQ, [[-1], [1, -1]])
    assert heads == [2]


# -- the g^0 block solved outright, and the residual over powers ----------------


def random_scalar(field, rng):
    if field.characteristic:
        return rng.randrange(field.p)
    return field.reduce(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))


@st.composite
def series_with_unit_constant(draw):
    """g with g_0 = 1 at an order of at least dz, so rows 0..dz of the full
    system exist: random, or 1 + a short polynomial, or 1 / (1 - c z^k), the
    last two with relations that reach past the head."""
    field = draw(st.sampled_from(NULLSPACE_FIELDS))
    dx = draw(st.integers(1, 4))
    dz = draw(st.integers(0, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    order = dz + rng.randrange((dx + 1) * (dz + 1) + 12)
    kind = draw(st.sampled_from(("random", "polynomial", "geometric")))
    if kind == "random":
        tail = [random_scalar(field, rng) for _ in range(order)]
    elif kind == "polynomial":
        tail = [random_scalar(field, rng) for _ in range(rng.randrange(1, 4))] + [0] * order
    else:
        c, k = random_scalar(field, rng), rng.randrange(1, 4)
        tail = [field.reduce(c ** (n // k)) if n % k == 0 else 0 for n in range(1, order + 1)]
    return Series(field, [1] + tail[:order]), dx, dz


@settings(max_examples=200, deadline=None)
@given(case=series_with_unit_constant())
def test_basis_is_the_full_system_nullspace(case):
    g, dx, dz = case
    pw = powers(g, dx)
    full = reference_system(g.field, pw, dz)
    assert _basis(pw, dz) == _head_nullspace(g.field, full, (dx + 1) * (dz + 1))


def test_system_reads_one_denominator_for_an_integral_series(monkeypatch):
    # ex4.1 at order 75, bounds (3, 7): the series is integral, so one lcm
    # over g settles all 68 rows, and the rows are the full system's.
    g = fixed_point_route(block_reduce(fixtures.ex41_spec(), 2), 75).gv
    pw = powers(g, 3)
    calls = []
    monkeypatch.setattr(
        annihilator, "denominator", lambda values: calls.append(1) or denominator(values)
    )
    rows = annihilator._system(pw[1:], 7)
    assert len(calls) == 1
    assert rows == [row[8:] for row in reference_system(QQ, pw, 7)[8:]]


def test_reconstruct_on_an_integral_series_divides_in_no_field(monkeypatch):
    # ex4.1's corner series is integral, so over Q the elimination, the
    # back-substitution, the three reads and the canonical form all run on
    # ints: no field division, and no code of the fractions module runs.
    g = direct_route(fixtures.ex41_spec(), 80)

    def refused(self, x, y):
        raise AssertionError("field division on an integral series")

    monkeypatch.setattr(RationalField, "div", refused)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        poly = reconstruct(g, 3, 7)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert poly == fixtures.ex41_annihilator()


# -- certify: one table of powers for the reconstruction and the residual --------


POWERS_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(2**61 - 1))


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(POWERS_FIELDS),
    fractional=st.booleans(),
    dx=st.integers(1, 4),
    order=st.one_of(st.integers(0, 3), st.integers(4, 40)),
    seed=st.integers(0, 2**32),
)
def test_powers_are_repeated_series_products(field, fractional, dx, order, seed):
    # g^2 by the squaring, and every later power, are the products
    # g·g·...·g of Series.__mul__, with the same canonical scalars.
    rng = random.Random(seed)
    if fractional or field.characteristic:
        coeffs = [random_scalar(field, rng) for _ in range(order + 1)]
    else:
        coeffs = [rng.randrange(-9, 10) for _ in range(order + 1)]
    g = Series(field, coeffs)
    want = [Series.one(field, order), g]
    for _ in range(dx - 1):
        want.append(want[-1] * g)
    got = powers(g, dx)
    assert got == want
    assert [list(map(type, p.coeffs)) for p in got] == [list(map(type, p.coeffs)) for p in want]


def test_certify_reads_truncations_of_one_power_table(monkeypatch):
    # powers runs once, at the series' full order; the system is built on
    # that table's truncations at N, which are the powers of g cut at N.
    g = direct_route(fixtures.ex42_spec(), 70)
    tables, solved = [], []
    real_powers, real_solve = annihilator.powers, annihilator._solve
    monkeypatch.setattr(
        annihilator, "powers", lambda h, dx: tables.append((h.order, dx)) or real_powers(h, dx)
    )
    monkeypatch.setattr(
        annihilator, "_solve", lambda pw, dz: solved.append(pw) or real_solve(pw, dz)
    )
    poly, res = certify(g, 50, 3, 5, 20, 1)
    assert tables == [(70, 3)]
    assert len(solved) == 1 and solved[0] == real_powers(g.truncate(50), 3)
    assert poly == fixtures.ex42_annihilator() and res and res.checked_order == 70


def test_certify_rejects_a_polynomial_that_holds_only_through_the_order():
    # 1/(1-z) + z^45 satisfies (1 - z) x - 1 = 0 through z^44: reconstruction
    # through N = 40 finds it, and the residual, taken through z^60, is
    # first nonzero at z^45.
    coeffs = [1] * 61
    coeffs[45] = 2
    g = Series(QQ, coeffs)
    poly, res = certify(g, 40, 1, 1, 20, 1)
    assert poly == AnnihilatorPoly(QQ, [[-1], [1, -1]]) == reconstruct(g.truncate(40), 1, 1)
    assert not res
    assert (res.first_bad_order, res.checked_order) == (45, 60)
    assert verify(poly, g.truncate(44))


def _fractional_specs():
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    bands = st.dictionaries(st.integers(-2, 2), st.lists(value, min_size=2, max_size=2),
                            min_size=1, max_size=3)
    return st.builds(BandedSpec, st.just(QQ), st.just(2), bands)


@settings(max_examples=60, deadline=None)
@given(spec=_fractional_specs(), dx=st.integers(1, 3), dz=st.integers(0, 4),
       guard=st.sampled_from((0, 2, 20)), extra=st.integers(0, 12))
def test_certify_on_the_cleared_spec_maps_back_to_the_fractional_series(
    spec, dx, dz, guard, extra
):
    # On h = g(L z), the corner series of L·V, certify finds the polynomial
    # that reconstruct finds on g through N, and its residual has the same
    # first nonzero order and order checked as verify's on g.
    den, scaled = clear_spec(spec)
    n = (dx + 1) * (dz + 1) + guard
    h = direct_route(scaled, n + extra)
    g = direct_route(spec, n + extra)
    assert h == g.scale_z(den)
    poly, res = certify(h, n, dx, dz, guard, den)
    want = reconstruct(g.truncate(n), dx, dz, guard)
    assert poly == want
    if want is None:
        assert res is None
    else:
        ref = verify(want, g)
        assert (res.first_bad_order, res.checked_order) == (
            ref.first_bad_order, ref.checked_order
        )


@st.composite
def polynomials_and_series(draw):
    field = draw(st.sampled_from(NULLSPACE_FIELDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    dx = draw(st.integers(1, 4))
    dz = draw(st.integers(0, 6))
    zero_rows = draw(st.sets(st.integers(0, dx - 1)))
    grid = [[0] * (dz + 1) if i in zero_rows else [random_scalar(field, rng) for _ in range(dz + 1)]
            for i in range(dx)]
    grid.append([random_scalar(field, rng) for _ in range(dz)] + [1])
    order = draw(st.integers(0, 30))
    g = Series(field, [random_scalar(field, rng) for _ in range(order + 1)])
    return AnnihilatorPoly(field, grid), g


@settings(max_examples=200, deadline=None)
@given(case=polynomials_and_series())
def test_evaluate_matches_horner(case):
    poly, g = case
    assert poly.evaluate(g) == reference_evaluate(poly, g)


def test_evaluate_on_a_root_and_on_zero_rows():
    g = motzkin_series(30)
    motzkin = AnnihilatorPoly(QQ, [[1], [-1, 1], [0, 0, 1]])
    assert motzkin.evaluate(g).is_zero()
    linear = AnnihilatorPoly(QQ, [[0], [1]])  # P = x: dx = 1, a zero row below
    assert linear.evaluate(g) == g == reference_evaluate(linear, g)
    sparse = AnnihilatorPoly(QQ, [[0], [0], [0], [2, 0, 1]])
    assert sparse.evaluate(g) == reference_evaluate(sparse, g)


def test_closed_form_plain_rational():
    # (1 + z) / (1 - z) with no radical part.
    form = ClosedForm(QQ, radicand=[1], num_plain=[1, 1], den_plain=[1, -1])
    s = form.expand(5)
    assert s.coeffs == (1, 2, 2, 2, 2, 2)


def test_closed_form_with_valuation_shift():
    # (1 - sqrt(1 - 4 z^2)) / (2 z^2) expands to the aerated Catalan numbers.
    form = ClosedForm(
        QQ, radicand=[1, 0, -4], num_plain=[1], num_radical=[-1], den_plain=[0, 0, 2]
    )
    s = form.expand(8)
    assert s.coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14)


def test_closed_form_rejects_inexact_shift():
    form = ClosedForm(
        QQ, radicand=[1, 0, -4], num_plain=[1], den_plain=[0, 0, 2]
    )
    with pytest.raises(NonUnitError):
        form.expand(8)


@st.composite
def _closed_forms(draw):
    """A closed form over Q or F_101 whose radicand has constant term 1 and
    whose denominator vanishes to order exactly v = 0..3 (all four parts are
    z^v times polynomials, the denominator's with a nonzero constant term),
    and an order 0..40 at which order + v is below, at or past the probe."""
    field = draw(st.sampled_from([QQ, PrimeField(101)]))
    coeff = st.integers(-5, 5)
    v = draw(st.integers(0, 3))
    shifted = [0] * v
    radicand = [1, *draw(st.lists(coeff, max_size=4))]
    den_plain, den_radical = draw(st.lists(coeff, max_size=4)), draw(st.lists(coeff, max_size=3))
    head = draw(st.integers(1, 5)) - (den_radical[0] if den_radical else 0)
    den_plain = [head, *den_plain[1:]]
    form = ClosedForm(
        field, radicand,
        num_plain=shifted + draw(st.lists(coeff, max_size=5)),
        num_radical=shifted + draw(st.lists(coeff, max_size=4)),
        den_plain=shifted + den_plain,
        den_radical=shifted + den_radical if den_radical else (),
    )
    probe = max(
        2 * len(form.den_plain) - 2, 2 * len(form.den_radical) + len(form.radicand) - 3
    )
    at = probe - v  # the order at which order + v is the probe
    where = draw(st.sampled_from(["below", "at", "past"] if at else ["at", "past"]))
    order = {
        "below": lambda: draw(st.integers(0, at - 1)),
        "at": lambda: at,
        "past": lambda: draw(st.integers(at + 1, 40)),
    }[where]()
    return form, v, order


@settings(max_examples=300, deadline=None)
@given(case=_closed_forms())
def test_expand_matches_the_two_step_reference(case):
    form, v, order = case
    got = form.expand(order)
    assert got == reference_expand(form, order) and got.order == order
    num, den = form.sides(order + v)
    assert den.valuation() == v and got * den.div_z_pow(v) == num.div_z_pow(v)


def test_check_closed_form_on_corpus():
    spec = fixtures.ex43_spec()
    g = fixed_point_route(block_reduce(spec, 3), 40).gv
    assert check_closed_form_sqrt(g, fixtures.ex43_closed_form())
    bad = ClosedForm(
        QQ, radicand=[1, 0, -10, 0, 9], num_plain=[5], den_plain=[3, 0, 1],
        den_radical=[1],
    )
    res = check_closed_form_sqrt(g, bad)
    assert not res and res.first_bad_order == 0


def test_polynomial_json_round_trip():
    p = fixtures.ex41_annihilator()
    doc = p.to_json_doc()
    assert doc["dx"] == 3 and doc["dz"] == 5
    again = AnnihilatorPoly.from_json_doc(doc, QQ)
    assert again == p


def test_pretty_matches_expected_layout():
    p = fixtures.ex41_annihilator()
    assert p.pretty() == (
        "(z^5 - z^4)*x^3 + (3*z^4 - 4*z^3 + 2*z^2)*x^2 + "
        "(2*z^3 - 4*z^2 + 3*z - 1)*x + (z^2 - 2*z + 1)"
    )
