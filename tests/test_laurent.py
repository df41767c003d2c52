import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedgf import matrices as cm
from bandedgf.fields import PrimeField, QQ
from bandedgf.identities import _independent_step_multiply
from bandedgf.laurent import accumulate, trimmed_powers
from helpers import reference_trimmed_powers

F101 = PrimeField(101)
FIELDS = [QQ, PrimeField(2), F101, PrimeField(2**61 - 1)]


def scalar_powers(a, b, c, order):
    return [
        tuple(m[0][0] for m in term)
        for term in trimmed_powers(QQ, ((a,),), ((b,),), ((c,),), order)
    ]


def scalar_accumulate(a, b, c, order):
    sums = accumulate(QQ, ((a,),), ((b,),), ((c,),), order)
    return [m.entry(0, 0).coeffs for m in sums]


def test_order_zero_is_identity():
    assert list(trimmed_powers(QQ, ((1,),), ((1,),), ((1,),), 0)) == [(((1,),),)]
    assert scalar_accumulate(1, 1, 1, 0) == [(1,), (0,), (0,)]


def test_trinomial_square_term():
    # (x + 1 + 1/x)^2 = x^2 + 2x + 3 + 2/x + 1/x^2; through z^3 the z^2 term
    # is still needed in full.
    assert scalar_powers(1, 1, 1, 3)[2] == (1, 2, 3, 2, 1)


def test_no_level_steps_square_term():
    # (x + 1/x)^2 = x^2 + 2 + 1/x^2
    assert scalar_powers(1, 0, 1, 3)[2] == (1, 0, 2, 0, 1)


def test_accumulate_central_and_side_coefficients():
    m0, m1, mm1 = scalar_accumulate(1, 1, 1, 2)
    assert m0 == (1, 1, 3)
    assert m1 == (0, 1, 2)
    assert mm1 == (0, 1, 2)


def test_accumulate_rejects_negative_order():
    with pytest.raises(ValueError):
        accumulate(QQ, ((1,),), ((1,),), ((1,),), -1)


def test_step_recursion_holds():
    # Each trimmed term is the centred window of the full power, built with
    # the identity suite's separately written step product.
    rng = random.Random(5)
    s = 2
    def mat():
        return tuple(tuple(rng.randrange(101) for _ in range(s)) for _ in range(s))
    a, b, c = mat(), mat(), mat()
    order = 7
    full = (cm.identity(F101, s),)
    for n, term in enumerate(trimmed_powers(F101, a, b, c, order)):
        r = min(n, order - n + 1)
        assert len(term) == 2 * r + 1
        assert term == full[n - r : n + r + 1]
        full = _independent_step_multiply(F101, a, b, c, full, n + 1)


def test_x_support_within_band():
    # Radius min(n, N - n + 1): never past the support [-n, n], and only the
    # degrees that still reach x^0 or x^{+-1} by z^N.
    radii = [len(t) // 2 for t in trimmed_powers(QQ, ((1,),), ((1,),), ((1,),), 6)]
    assert radii == [0, 1, 2, 3, 3, 2, 1]


@st.composite
def _step_symbols(draw):
    """A field (Q with true fractions, F_2, F_101, F_(2^61-1)), and step
    matrices A, B, C of size 1..6 with frequent zero entries and rows."""
    field = draw(st.sampled_from(FIELDS))
    s = draw(st.integers(1, 6))
    if field == QQ:
        scalar = st.builds(
            QQ.parse, st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 6))
        )
    else:
        scalar = st.integers(0, field.p - 1)
    row = st.lists(st.sampled_from([0, 0, 1]) | scalar, min_size=s, max_size=s)
    row = row | st.just([0] * s)
    mats = [cm.freeze(draw(st.lists(row, min_size=s, max_size=s))) for _ in range(3)]
    return field, mats


@settings(max_examples=60, deadline=None)
@given(symbol=_step_symbols(), order=st.integers(0, 14))
def test_stream_matches_the_block_product_stream(symbol, order):
    """Every trimmed term, and the three transition sums read off the
    stream, equal those of the block-product reference, spelled alike."""
    field, (a, b, c) = symbol
    want = list(reference_trimmed_powers(field, a, b, c, order))
    got = list(trimmed_powers(field, a, b, c, order))
    assert len(got) == order + 1
    for n, (term, ref) in enumerate(zip(got, want)):
        assert term == ref, n
        assert repr(term) == repr(ref), n
    zero = cm.zeros(field, len(a))
    sums = accumulate(field, a, b, c, order)
    for shift, series in zip((0, 1, -1), sums):
        ref = tuple(
            t[len(t) // 2 + shift] if len(t) > 1 or not shift else zero for t in want
        )
        assert series.coeffs == ref
        assert repr(series.coeffs) == repr(ref)
