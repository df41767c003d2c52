from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedgf.banded import BlockWeights
from bandedgf.errors import (
    FieldMismatchError,
    NonUnitError,
    UnsupportedCharacteristicError,
    UnsupportedSqrtError,
)
from bandedgf.fields import PrimeField, QQ
from bandedgf.series import Series

from helpers import enumerate_sum, reference_mul


def S(ints, order=None):
    return Series.from_ints(QQ, ints, order=order)


def test_mul_difference_of_squares():
    assert (S([1, 1], 3) * S([1, -1], 3)).coeffs == (1, 0, -1, 0)


def test_mul_identity():
    a = S([3, 1, 4, 1, 5])
    assert (a * Series.one(QQ, a.order)).coeffs == a.coeffs


def test_mul_truncates_to_smaller_order():
    assert (S([1, 1, 1], 2) * S([1, 1], 5)).order == 2


@settings(max_examples=150, deadline=None)
@given(data=st.data(), p=st.sampled_from([0, 2, 101, 2**61 - 1]))
def test_mul_matches_the_generator_product_at_unequal_orders(data, p):
    field = PrimeField(p) if p else QQ
    if p:
        scalars = st.integers(0, p - 1)
    else:
        scalars = st.fractions(min_value=-9, max_value=9, max_denominator=6).map(QQ.reduce)
    a = Series(field, data.draw(st.lists(scalars, min_size=1, max_size=40)))
    b = Series(field, data.draw(st.lists(scalars, min_size=1, max_size=40)))
    assert a * b == reference_mul(a, b)
    assert b * a == reference_mul(b, a)
    assert (a * b).order == min(a.order, b.order)


def test_motzkin_square_coefficient():
    # The z^4 coefficient of the squared Motzkin series, with the Motzkin
    # numbers taken from the walk enumeration oracle.
    w = BlockWeights(QQ, 1, [[1]], [[1]], [[1]], [[1]])
    motzkin = enumerate_sum(w, 4, 0, 0, "standard").entry(0, 0)
    assert motzkin.coeffs == (1, 1, 2, 4, 9)
    assert (motzkin * motzkin).coeffs[4] == 30


def test_invert_geometric():
    assert S([1, -1], 3).invert().coeffs == (1, 1, 1, 1)


def test_invert_identity():
    assert Series.one(QQ, 4).invert().coeffs == (1, 0, 0, 0, 0)


def test_invert_squared_geometric():
    # 1/(1-z)^2 expands with the positive integers as coefficients.
    assert S([1, -2, 1], 4).invert().coeffs == (1, 2, 3, 4, 5)


def test_invert_requires_unit():
    with pytest.raises(NonUnitError):
        S([0, 1], 3).invert()


def test_mixed_fields_rejected():
    a = Series.from_ints(QQ, [1, 1], order=2)
    b = Series.from_ints(PrimeField(5), [1, 1], order=2)
    with pytest.raises(FieldMismatchError):
        a + b


def test_sqrt_identity():
    assert Series.one(QQ, 5).sqrt().coeffs == (1, 0, 0, 0, 0, 0)


def test_sqrt_of_one_minus_four_z_squared():
    assert S([1, 0, -4], 8).sqrt().coeffs == (1, 0, -2, 0, -2, 0, -4, 0, -10)


def test_sqrt_quartic_radicand():
    assert S([1, 0, -10, 0, 9], 6).sqrt().coeffs == (1, 0, -5, 0, -8, 0, -40)


def test_sqrt_rejects_bad_constant_term():
    with pytest.raises(UnsupportedSqrtError):
        S([4, 1], 3).sqrt()


def test_sqrt_rejects_characteristic_two():
    with pytest.raises(UnsupportedCharacteristicError):
        Series.one(PrimeField(2), 3).sqrt()


def test_shift_division_requires_vanishing_low_orders():
    a = S([0, 0, 3, 1], 3)
    assert a.div_z_pow(2).coeffs == (3, 1)
    with pytest.raises(NonUnitError):
        S([0, 1], 3).div_z_pow(2)


def test_shift_division_refuses_a_negative_shift():
    with pytest.raises(ValueError):
        S([1, 2, 3], 2).div_z_pow(-1)


def test_truncate_refuses_a_negative_order():
    with pytest.raises(ValueError):
        S([1, 2, 3], 2).truncate(-2)


def test_from_ints_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series.from_ints(QQ, [1, 2, 3], order=-2)


def test_zero_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series.zero(QQ, -1)


def test_one_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series.one(PrimeField(101), -1)


def test_constant_refuses_a_negative_order():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        Series.constant(QQ, Fraction(1, 3), -1)


def test_from_ints_pads_or_cuts_to_the_order():
    assert Series.from_ints(QQ, [1, Fraction(1, 2), 3], order=1).coeffs == (1, Fraction(1, 2))
    assert Series.from_ints(QQ, [1, 2], order=3).coeffs == (1, 2, 0, 0)
    assert Series.from_ints(QQ, [], order=0).coeffs == (0,)
    assert Series.from_ints(PrimeField(7), [-1, 9], order=2).coeffs == (6, 2, 0)


small_fraction = st.fractions(min_value=-40, max_value=40, max_denominator=8)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_unit_inverse_round_trip(coeffs):
    coeffs[0] = Fraction(1)
    a = Series(QQ, coeffs)
    assert (a * a.invert()).coeffs == Series.one(QQ, a.order).coeffs


@settings(max_examples=40, deadline=None)
@given(st.lists(small_fraction, min_size=1, max_size=8))
def test_sqrt_round_trip(coeffs):
    coeffs[0] = Fraction(1)
    a = Series(QQ, coeffs)
    r = a.sqrt()
    assert (r * r).coeffs == a.coeffs
    assert r.coeffs[0] == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 100), min_size=1, max_size=6),
    st.lists(st.integers(0, 100), min_size=1, max_size=6),
    st.lists(st.integers(0, 100), min_size=1, max_size=6),
)
def test_ring_axioms_over_prime_field(xs, ys, zs):
    f = PrimeField(101)
    n = min(len(xs), len(ys), len(zs)) - 1
    a = Series.from_ints(f, xs, order=n)
    b = Series.from_ints(f, ys, order=n)
    c = Series.from_ints(f, zs, order=n)
    assert (a * b).coeffs == (b * a).coeffs
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
