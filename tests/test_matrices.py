import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedgf import matrices as cm
from bandedgf.errors import NonUnitError, ShapeError
from bandedgf.fields import PrimeField, QQ
from bandedgf.matseries import MatrixSeries

F101 = PrimeField(101)


def rand_mat(rng, s, field=F101):
    return tuple(
        tuple(field.reduce(rng.randrange(101)) for _ in range(s)) for _ in range(s)
    )


def rand_matseries(rng, s, order, field=F101):
    return MatrixSeries(field, s, [rand_mat(rng, s, field) for _ in range(order + 1)])


def test_constant_inverse_round_trip():
    m = ((1, 2), (3, 5))
    inv = cm.inverse(QQ, m)
    assert cm.mul(QQ, m, inv) == cm.identity(QQ, 2)


def rand_entry(rng, field):
    """A random scalar; over Q a mix of ints and proper Fractions."""
    if field is QQ and rng.random() < 0.5:
        return QQ.reduce(Fraction(rng.randrange(-30, 31), rng.randrange(1, 8)))
    return field.reduce(rng.randrange(-50, 51))


def rand_sparse_mat(rng, s, field):
    """A random matrix of one of several sparsity shapes: dense, mostly zero,
    zero, a single nonzero entry, or dense but for a zero row or column."""
    shape = rng.choice(("dense", "sparse", "zero", "single", "zero_row", "zero_col"))
    density = 0.2 if shape == "sparse" else 1.0
    m = [
        [rand_entry(rng, field) if rng.random() < density else field.zero for _ in range(s)]
        for _ in range(s)
    ]
    if shape == "zero":
        m = [[field.zero] * s for _ in range(s)]
    elif shape == "single":
        m = [[field.zero] * s for _ in range(s)]
        m[rng.randrange(s)][rng.randrange(s)] = rand_entry(rng, field) or field.one
    elif shape == "zero_row":
        m[rng.randrange(s)] = [field.zero] * s
    elif shape == "zero_col":
        j = rng.randrange(s)
        for row in m:
            row[j] = field.zero
    return cm.freeze(m)


def summed_products(field, pairs):
    s = len(pairs[0][0])
    want = cm.zeros(field, s)
    for x, y in pairs:
        want = cm.add(field, want, cm.mul(field, x, y))
    return want


@pytest.mark.parametrize("field", [F101, QQ])
def test_sum_of_products_matches_summed_products(field):
    rng = random.Random(7)
    for s in (1, 2, 3):
        pairs = [(rand_mat(rng, s, field), rand_mat(rng, s, field)) for _ in range(4)]
        assert cm.sum_of_products(field, pairs) == summed_products(field, pairs)
        assert cm.sum_of_products(field, pairs[:1]) == cm.mul(field, *pairs[0])
    # Sparse factors (zero rows and columns, single nonzeros) and, over Q,
    # mixed int and Fraction entries, at every size and pair count.
    for s in range(1, 7):
        for count in range(1, 9):
            for _ in range(3):
                pairs = [
                    (rand_sparse_mat(rng, s, field), rand_sparse_mat(rng, s, field))
                    for _ in range(count)
                ]
                got = cm.sum_of_products(field, pairs)
                assert got == summed_products(field, pairs)
                assert got == tuple(tuple(map(field.reduce, row)) for row in got)


def reference_series_mul(a: MatrixSeries, b: MatrixSeries) -> MatrixSeries:
    """The zero-skipping loop MatrixSeries.__mul__ ran before it called
    sum_of_products, kept as a reference for the kernel."""
    n = min(a.order, b.order)
    f, s = a.field, a.s
    red = f.reduce
    rng = range(s)
    out = []
    for m in range(n + 1):
        acc = [[0] * s for _ in rng]
        for k in range(m + 1):
            ak, bk = a.coeffs[k], b.coeffs[m - k]
            for i in rng:
                arow = ak[i]
                acci = acc[i]
                for t in rng:
                    av = arow[t]
                    if av:
                        brow = bk[t]
                        for j in rng:
                            acci[j] += av * brow[j]
        out.append(tuple(tuple(red(x) for x in row) for row in acc))
    return MatrixSeries(f, s, out)


@pytest.mark.parametrize("field", [F101, QQ])
def test_series_product_matches_the_old_zero_skipping_loop(field):
    rng = random.Random(13)
    for s in range(1, 5):
        for order in (0, 1, 4, 7):
            a = MatrixSeries(field, s, [rand_sparse_mat(rng, s, field) for _ in range(order + 1)])
            b = MatrixSeries(field, s, [rand_sparse_mat(rng, s, field) for _ in range(order + 2)])
            assert (a * b).coeffs == reference_series_mul(a, b).coeffs
            assert (b * a).coeffs == reference_series_mul(b, a).coeffs
            m = rand_sparse_mat(rng, s, field)
            const = MatrixSeries.from_const(field, m, order)
            assert a.lmul_const(m).coeffs == reference_series_mul(const, a).coeffs
            assert a.rmul_const(m).coeffs == reference_series_mul(a, const).coeffs
            unit = MatrixSeries(field, s, (cm.identity(field, s),) + a.coeffs[1:])
            ident = MatrixSeries.identity(field, s, order)
            assert reference_series_mul(unit, unit.inverse()).coeffs == ident.coeffs


def test_constant_inverse_rejects_singular():
    with pytest.raises(NonUnitError):
        cm.inverse(QQ, ((1, 1), (1, 1)))


def test_identity_neutral():
    rng = random.Random(1)
    a = rand_matseries(rng, 3, 4)
    ident = MatrixSeries.identity(F101, 3, 4)
    assert (ident * a).coeffs == a.coeffs
    assert (a * ident).coeffs == a.coeffs


def test_invert_one_minus_z_t():
    # (I - zT)^-1 = I + zT + z^2 T^2 for the upper-triangular T below.
    t = ((16, 4), (0, 4))
    coeffs = [cm.identity(QQ, 2), tuple(tuple(-v for v in row) for row in t)]
    m = MatrixSeries(QQ, 2, coeffs + [cm.zeros(QQ, 2)])
    inv = m.inverse()
    assert inv.entry(0, 0).coeffs == (1, 16, 256)
    assert inv.entry(0, 1).coeffs == (0, 4, 80)
    assert inv.entry(1, 0).coeffs == (0, 0, 0)
    assert inv.entry(1, 1).coeffs == (1, 4, 16)


def reference_inverse(a: MatrixSeries) -> MatrixSeries:
    """The order-by-order inverse MatrixSeries.inverse ran before it became a
    solve against the identity: out_n = -c0 (a_1 out_(n-1) + ... + a_n out_0)."""
    f, sop = a.field, cm.sum_of_products
    c0 = cm.inverse(f, a.coeffs[0])
    neg_c0 = cm.neg(f, c0)
    out = [c0]
    for n in range(1, a.order + 1):
        acc = sop(f, [(a.coeffs[k], out[n - k]) for k in range(1, n + 1)])
        out.append(sop(f, [(neg_c0, acc)]))
    return MatrixSeries(f, a.s, out)


@st.composite
def _series_pairs(draw):
    """Two matrix series of size 1..6 over Q (true fractions), F_2, F_101 or
    F_(2^61-1), zero entries frequent; the constant term of the first is
    drawn at random (often singular) or triangular with a unit diagonal."""
    field = draw(st.sampled_from([QQ, PrimeField(2), F101, PrimeField(2**61 - 1)]))
    s = draw(st.integers(1, 6))
    if field == QQ:
        unit = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 7))
        scalar = st.just(0) | st.integers(-5, 5) | unit
    else:
        unit = st.integers(1, field.p - 1)
        scalar = st.just(0) | st.just(0) | unit
    scalar = scalar.map(field.reduce)
    mat = st.lists(st.lists(scalar, min_size=s, max_size=s), min_size=s, max_size=s)
    order = draw(st.integers(0, 8 if field == QQ and s > 3 else 14))
    a = [draw(mat) for _ in range(order + 1)]
    if draw(st.booleans()):
        a[0] = [
            [field.reduce(draw(unit)) if i == j else v if j < i else field.zero
             for j, v in enumerate(row)]
            for i, row in enumerate(a[0])
        ]
    b = [draw(mat) for _ in range(draw(st.integers(0, order + 2)) + 1)]
    return MatrixSeries(field, s, a), MatrixSeries(field, s, b)


@settings(max_examples=60, deadline=None)
@given(pair=_series_pairs())
def test_solve_matches_inverse_then_multiply(pair):
    """a X = b, coefficient for coefficient, equals a^-1 b from the previous
    inverse loop, spelled alike; inverse() equals that loop; a singular
    constant term raises the same NonUnitError from all three."""
    a, b = pair
    try:
        inv = reference_inverse(a)
    except NonUnitError as exc:
        for call in (lambda: a.solve(b), a.inverse):
            with pytest.raises(NonUnitError, match=str(exc)):
                call()
        return
    x = a.solve(b)
    want = inv * b
    assert x.order == min(a.order, b.order)
    assert x.coeffs == want.coeffs
    assert repr(x.coeffs) == repr(want.coeffs)
    assert (a * x).coeffs == b.truncate(x.order).coeffs
    assert a.inverse().coeffs == inv.coeffs
    assert repr(a.inverse().coeffs) == repr(inv.coeffs)


def test_invert_rejects_singular_constant_term():
    m = MatrixSeries.from_const(QQ, ((1, 1), (1, 1)), 3)
    with pytest.raises(NonUnitError):
        m.inverse()


def test_matrix_series_truncate_refuses_a_negative_order():
    with pytest.raises(ValueError):
        rand_matseries(random.Random(3), 2, 3).truncate(-2)


def test_matrix_series_identity_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        MatrixSeries.identity(QQ, 2, -1)


def test_matrix_series_shift_keeps_the_order_and_composes():
    a = rand_matseries(random.Random(4), 2, 5)
    assert all(a.shift(k).order == a.order for k in range(8))
    assert a.shift(0) == a
    assert a.shift(6).is_zero() and a.shift(60).is_zero()
    for j in range(4):
        for k in range(4):
            assert a.shift(j).shift(k) == a.shift(j + k)


def test_matrix_series_shift_agrees_with_a_product_by_z_power():
    a = rand_matseries(random.Random(6), 3, 4)
    for k in range(6):
        z_k = [cm.zeros(F101, 3)] * (a.order + 1)
        if k <= a.order:
            z_k[k] = cm.identity(F101, 3)
        assert a.shift(k) == MatrixSeries(F101, 3, z_k) * a


def test_matrix_series_shift_refuses_a_negative_power():
    with pytest.raises(ValueError, match="negative shift"):
        MatrixSeries.identity(QQ, 2, 3).shift(-1)


def test_matrix_series_from_const_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        MatrixSeries.from_const(PrimeField(101), ((1, 2), (3, 4)), -2)


def test_shape_mismatch():
    a = MatrixSeries.identity(QQ, 2, 3)
    b = MatrixSeries.identity(QQ, 3, 3)
    with pytest.raises(ShapeError):
        a * b
    for m in (cm.identity(QQ, 3), cm.identity(QQ, 1)):
        with pytest.raises(ShapeError):
            a.lmul_const(m)
        with pytest.raises(ShapeError):
            a.rmul_const(m)


def test_matrix_series_inverse_round_trip():
    rng = random.Random(7)
    for s in (1, 2, 3):
        a = rand_matseries(rng, s, 6)
        # Force an invertible constant term.
        coeffs = (cm.identity(F101, s),) + a.coeffs[1:]
        a = MatrixSeries(F101, s, coeffs)
        assert (a * a.inverse()).coeffs == MatrixSeries.identity(F101, s, 6).coeffs


def test_ring_axioms_on_random_samples():
    rng = random.Random(11)
    for _ in range(5):
        s = rng.choice((1, 2, 3))
        a = rand_matseries(rng, s, 4)
        b = rand_matseries(rng, s, 4)
        c = rand_matseries(rng, s, 4)
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
        assert (c * (a + b)).coeffs == (c * a + c * b).coeffs


def test_entry_and_from_entries_round_trip():
    rng = random.Random(3)
    a = rand_matseries(rng, 2, 5)
    for i in range(2):
        for j in range(2):
            assert a.entry(i, j).coeffs == tuple(c[i][j] for c in a.coeffs)


def test_integer_rational_mix_is_exact():
    # Rational matrices with true fractions still combine exactly.
    half = Fraction(1, 2)
    m = MatrixSeries(QQ, 2, [((1, half), (0, 1)), ((half, 0), (0, half))])
    sq = m * m
    assert sq.entry(0, 1).coeffs == (1, half)
    inv = m.inverse()
    assert (m * inv).coeffs == MatrixSeries.identity(QQ, 2, 1).coeffs
