import random

import pytest

from bandedgf import matrices as cm
from bandedgf.errors import NonUnitError, ShapeError
from bandedgf.fields import PrimeField, QQ
from bandedgf.matseries import MatrixSeries

F101 = PrimeField(101)


def rand_mat(rng, s, field=F101):
    return tuple(
        tuple(field.from_int(rng.randrange(101)) for _ in range(s)) for _ in range(s)
    )


def rand_matseries(rng, s, order, field=F101):
    return MatrixSeries(field, s, [rand_mat(rng, s, field) for _ in range(order + 1)])


def test_constant_inverse_round_trip():
    m = ((1, 2), (3, 5))
    inv = cm.inverse(QQ, m)
    assert cm.mul(QQ, m, inv) == cm.identity(QQ, 2)


@pytest.mark.parametrize("field", [F101, QQ])
def test_sum_of_products_matches_summed_products(field):
    rng = random.Random(7)
    for s in (1, 2, 3):
        pairs = [(rand_mat(rng, s, field), rand_mat(rng, s, field)) for _ in range(4)]
        want = cm.zeros(field, s)
        for x, y in pairs:
            want = cm.add(field, want, cm.mul(field, x, y))
        assert cm.sum_of_products(field, pairs) == want
        assert cm.sum_of_products(field, pairs[:1]) == cm.mul(field, *pairs[0])


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


def test_invert_rejects_singular_constant_term():
    m = MatrixSeries.from_const(QQ, ((1, 1), (1, 1)), 3)
    with pytest.raises(NonUnitError):
        m.inverse()


def test_shape_mismatch():
    a = MatrixSeries.identity(QQ, 2, 3)
    b = MatrixSeries.identity(QQ, 3, 3)
    with pytest.raises(ShapeError):
        a * b


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
    grid = [[a.entry(i, j) for j in range(2)] for i in range(2)]
    assert MatrixSeries.from_entries(grid).coeffs == a.coeffs


def test_integer_rational_mix_is_exact():
    # Rational matrices with true fractions still combine exactly.
    from fractions import Fraction

    half = Fraction(1, 2)
    m = MatrixSeries(QQ, 2, [((1, half), (0, 1)), ((half, 0), (0, half))])
    sq = m * m
    assert sq.entry(0, 1).coeffs == (1, half)
    inv = m.inverse()
    assert (m * inv).coeffs == MatrixSeries.identity(QQ, 2, 1).coeffs
