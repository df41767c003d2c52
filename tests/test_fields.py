from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedgf.annihilator import AnnihilatorPoly
from bandedgf.banded import BandedSpec, BlockWeights
from bandedgf.errors import NonUnitError, SpecFormatError
from bandedgf.fields import (
    PrimeField,
    QQ,
    cleared,
    denominator,
    field_from_json,
    field_to_json,
    is_prime,
)
from bandedgf.section5 import EventuallyPolySeq
from bandedgf.series import Series


def test_prime_check():
    assert is_prime(2) and is_prime(101) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**32)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(SpecFormatError):
        PrimeField(91)


def test_a_modulus_is_proven_once():
    # is_prime is memoised, so a second field on the same modulus runs no
    # second Miller-Rabin proof, and a composite is refused both times.
    is_prime.cache_clear()
    assert PrimeField(2**61 - 1) == PrimeField(2**61 - 1)
    assert (is_prime.cache_info().misses, is_prime.cache_info().hits) == (1, 1)
    for _ in range(2):
        with pytest.raises(SpecFormatError):
            PrimeField(2**61 + 1)  # divisible by 3
    assert (is_prime.cache_info().misses, is_prime.cache_info().hits) == (2, 2)


def test_strong_pseudoprimes_to_the_first_prime_bases_are_refused():
    psi12 = 399165290221 * 798330580441  # passes the bases 2..37
    psi13 = 1287836182261 * 2575672364521  # passes the bases 2..41
    assert not is_prime(psi12)
    for modulus in (psi12, psi13):
        with pytest.raises(SpecFormatError):
            PrimeField(modulus)
    assert is_prime(3317044064679887385961813)  # the largest prime below psi13
    assert PrimeField(3317044064679887385961813).p == 3317044064679887385961813


def test_rational_canonical_form():
    assert QQ.reduce(Fraction(10, 2)) == 5
    assert isinstance(QQ.reduce(Fraction(10, 2)), int)
    assert QQ.reduce(Fraction(1, 3)) == Fraction(1, 3)
    assert QQ.parse("22/7") == Fraction(22, 7)
    assert QQ.parse(-4) == -4
    assert QQ.format(Fraction(-3, 6)) == "-1/2"


def test_rational_inverse_is_exact():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.inv(5) == Fraction(1, 5)
    assert QQ.inv(1) == 1
    with pytest.raises(NonUnitError):
        QQ.inv(0)


def test_prime_field_ops():
    f = PrimeField(7)
    assert f.parse("1/2") == 4  # 2 * 4 = 8 = 1 mod 7
    assert f.inv(3) == 5
    assert f.reduce(-1) == 6
    with pytest.raises(NonUnitError):
        f.inv(7)
    with pytest.raises(SpecFormatError):
        f.parse("1/7")


@settings(max_examples=80, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 101, 2**61 - 1]))
def test_prime_field_inverse(data, p):
    f = PrimeField(p)
    x = data.draw(st.integers(1, p - 1))
    assert f.reduce(x * f.inv(x)) == 1
    assert f.inv(x + p) == f.inv(x)
    for zero in (0, p, -p):
        with pytest.raises(NonUnitError, match=f"0 has no inverse mod {p}"):
            f.inv(zero)


def test_field_json_round_trip():
    assert field_from_json("rational") == QQ
    assert field_from_json({"prime": 101}) == PrimeField(101)
    assert field_to_json(QQ) == "rational"
    assert field_to_json(PrimeField(13)) == {"prime": 13}
    with pytest.raises(SpecFormatError):
        field_from_json({"prime": 10})


def test_parse_format_round_trip_is_bit_exact():
    for text in ("0", "4", "-9", "22/7", "-3/13"):
        assert QQ.format(QQ.parse(text)) == text


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4))
def test_rational_reduce_preserves_value(q):
    assert QQ.reduce(q) == q


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_prime_field_axioms(a, b, c):
    f = PrimeField(101)
    r = f.reduce
    assert r(a + b) == r(b + a)
    assert r(a * (b + c)) == r(a * b + a * c)
    assert r((a * b) * c) == r(a * (b * c))
    if a % 101:
        assert r(a * f.inv(a)) == 1


_rationals = st.lists(
    st.fractions(min_value=-30, max_value=30, max_denominator=9).map(QQ.reduce), max_size=6
).filter(lambda vs: any(isinstance(v, Fraction) for v in vs))


@settings(max_examples=100, deadline=None)
@given(values=_rationals)
def test_denominator_is_the_least_multiplier_that_clears_rationals(values):
    den = denominator(values)
    assert type(den) is int and den > 1
    for v in values:
        out = cleared(v, den)
        assert type(out) is int and out == den * v
    assert not any(
        all((d * v).denominator == 1 for v in map(Fraction, values)) for d in range(1, den)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 101, 2**61 - 1]))
def test_prime_field_scalars_need_no_clearing(data, p):
    values = data.draw(st.lists(st.integers(0, p - 1), max_size=6))
    assert denominator(values) == 1
    assert [cleared(v, 1) for v in values] == values
    assert all(type(cleared(v, 1)) is int for v in values)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_parse_refuses_what_is_not_a_rational_with_its_exact_message(field):
    noun = "rational" if field is QQ else "field"
    # The last two pass the spelling check but exceed Python's int digit limit.
    for text in (True, 1.5, None, [], "abc", "1/0", "1.5", "1e0", " 1 ", "1_0", "1/-2", "٣",
                 "1" * 5000, "1/" + "1" * 5000):
        with pytest.raises(SpecFormatError) as exc:
            field.parse(text)
        assert str(exc.value) == f"not a {noun} value: {text!r}"


def test_prime_field_parse_refuses_a_denominator_the_prime_divides():
    with pytest.raises(SpecFormatError) as exc:
        PrimeField(3).parse("1/3")
    assert str(exc.value) == "'1/3' has denominator divisible by 3"
    assert QQ.parse("1/3") == Fraction(1, 3)


def _stored_scalars(field, q):
    """What BandedSpec, EventuallyPolySeq, BlockWeights, Series.from_ints and
    Series.constant store for the value q, read back from each."""
    spec = BandedSpec(field, 1, {0: [q]}, [(1, 1, q)])
    seq = EventuallyPolySeq(field, 1, [((q,), (q,))])
    w = BlockWeights(field, 1, [[q]], [[q]], [[q]], [[q]])
    return [
        *spec.bands[0], spec.exceptional[(1, 1)], *seq.rules[0][0], *seq.rules[0][1],
        w.a[0][0], w.b[0][0], w.c[0][0], w.d[0][0],
        Series.from_ints(field, [q], 2).coeffs[0], Series.constant(field, q, 2).coeffs[0],
    ]


def test_prime_field_constructors_map_a_true_fraction_to_num_times_den_inverse():
    f = PrimeField(101)
    assert f.reduce(Fraction(7, 4)) == f.parse("7/4") == 27
    stored = _stored_scalars(f, Fraction(7, 4))
    assert stored == [27] * 10 and all(type(v) is int for v in stored)
    assert AnnihilatorPoly(f, [[Fraction(7, 4), 1]]).coeffs == ((27, 1),)
    for build in (
        lambda q: AnnihilatorPoly(f, [[q, 1]]),
        lambda q: BandedSpec(f, 1, {0: [q]}),
        lambda q: BandedSpec(f, 1, {}, [(1, 1, q)]),
        lambda q: EventuallyPolySeq(f, 1, [((q,), (1,))]),
        lambda q: BlockWeights(f, 1, [[q]], [[0]], [[0]], [[0]]),
        lambda q: Series.from_ints(f, [q], 2),
        lambda q: Series.constant(f, q, 2),
    ):
        with pytest.raises(NonUnitError, match="1/101 has denominator divisible by 101"):
            build(Fraction(1, 101))
    with pytest.raises(TypeError):
        f.reduce(1.5)


def test_rational_constructors_keep_a_true_fraction():
    for q in (Fraction(7, 4), Fraction(1, 101)):
        assert _stored_scalars(QQ, q) == [q] * 10
    assert AnnihilatorPoly(QQ, [[Fraction(7, 4), 1]]).coeffs == ((7, 4),)
