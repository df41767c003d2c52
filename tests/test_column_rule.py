"""The field's column rule, and the first columns it lets go unreduced.

Over F_p ``corner_first_columns`` enters each value as its symmetric residue
and reduces a column only every k steps, k read off the prime and the spec's
values; over Q it never reduces a column of ints and reduces every column
once a true fraction is among the values.  Every reader reduces what it
outputs, so the direct route and both Section 5 pipelines must agree with
the untrimmed loop of ``helpers.reference_first_columns``, which reduces
every entry at every step, at orders on both sides of k and well past it.
"""

from fractions import Fraction
from operator import mul

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandedgf.banded import BandedSpec, checked_block_size
from bandedgf.engine import corner_first_columns, direct_route
from bandedgf.fields import COLUMN_BITS, PrimeField, QQ
from bandedgf.section5 import AffineRecursion, EventuallyPolySeq, affine_pipeline, weighted_series
from bandedgf.series import Series

from helpers import reference_first_columns, rule_value

F_MERSENNE = PrimeField(2**61 - 1)


def _values(spec):
    return [*spec.exceptional.values(), *(v for vals in spec.bands.values() for v in vals)]


def test_rational_rule_never_reduces_ints_and_reduces_every_step_on_a_fraction():
    enter, every = QQ.column_rule([1, -3, 0, 7])
    assert every is None
    assert [enter(v) for v in (1, -3, Fraction(1, 2))] == [1, -3, Fraction(1, 2)]
    assert QQ.column_rule([1, Fraction(2, 3), 4])[1] == 1


def test_prime_rule_enters_symmetric_residues_and_sizes_k_from_the_values():
    p = F_MERSENNE.p
    enter, every = F_MERSENNE.column_rule([1, p - 1])
    assert [enter(v) for v in (0, 1, p // 2, p // 2 + 1, p - 2, p - 1)] == [
        0, 1, p // 2, -(p // 2), -2, -1,
    ]
    # S = |1| + |-1| = 2, two bits a step: (256 - 61) // 2 steps fit the budget.
    assert every == (COLUMN_BITS - 61) // 2 == 97
    # (p + 1) / 2 enters as -(p - 1) / 2, 60 bits: three steps fit.
    assert F_MERSENNE.column_rule([(p + 1) // 2, 1])[1] == 3
    # No nonzero value: nothing grows, and one bit a step is charged.
    assert F_MERSENNE.column_rule([0, 0])[1] == COLUMN_BITS - 61
    # Over F_2 nothing moves; over F_3 and F_5 the top residues enter negative.
    assert PrimeField(2).column_rule([1])[0](1) == 1
    assert PrimeField(3).column_rule([2])[0](2) == -1
    assert [PrimeField(5).column_rule([])[0](v) for v in range(5)] == [0, 1, 2, -2, -1]


def test_a_fraction_among_integral_values_reduces_every_column():
    # 2 · 1/2 is Fraction(1, 1): only a reduction turns it back into the int 1.
    spec = BandedSpec(QQ, 1, {-1: [Fraction(1, 2)], 1: [2]}, [(1, 1, 3)])
    assert QQ.column_rule(_values(spec))[1] == 1
    got = list(corner_first_columns(spec, 12))
    assert all(type(v) is int or v.denominator > 1 for col in got for v in col)
    ref = reference_first_columns(spec, 12)
    assert got == [col[: len(g)] for col, g in zip(ref, got)]
    assert direct_route(spec, 12) == Series(QQ, [col[0] for col in ref])


def _special(p):
    """The residues 0, 1, (p + 1) / 2, p - 1 and p - 2: the last three enter
    the step moved by -p (but over F_2, where nothing moves)."""
    return st.sampled_from(sorted({0, 1, (p + 1) // 2 % p, (p - 1) % p, (p - 2) % p}))


@st.composite
def _delayed_cases(draw):
    """A spec over F_2, F_3, F_5, F_101 or F_(2^61-1) with bands in -2..2 and
    overrides in the 3x3 corner, all values drawn from ``_special``; an order
    of k - 1, k, k + 1, 3k or one between k + 1 and 3k, k the spec's reduction
    interval; and forcing rules for both Section 5 pipelines."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5, 101, 2**61 - 1])))
    value = _special(field.p)
    period = draw(st.integers(1, 2))
    offsets = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4, unique=True))
    bands = {r: draw(st.lists(value, min_size=period, max_size=period)) for r in offsets}
    cells = st.tuples(st.integers(1, 3), st.integers(1, 3), value)
    spec = BandedSpec(field, period, bands, draw(st.lists(cells, max_size=3)))
    k = field.column_rule(_values(spec))[1]
    order = draw(
        st.sampled_from([max(k - 1, 0), k, k + 1, 3 * k]) | st.integers(k + 2, max(3 * k, k + 2))
    )
    s = checked_block_size(spec, None)

    def rules():
        return EventuallyPolySeq(
            field,
            s,
            [
                (draw(st.lists(value, max_size=2)), draw(st.lists(value, max_size=2)))
                for _ in range(s)
            ],
        )

    d = draw(st.integers(1, 2))
    rec = AffineRecursion(
        field,
        d,
        [draw(st.lists(value, min_size=d, max_size=d)) for _ in range(d)],
        draw(st.lists(value, min_size=d, max_size=d)),
        [rules() for _ in range(d)],
    )
    return spec, s, order, rules(), rec


def _reference_pipelines(spec, s, order, a, rec):
    """direct, weighted and affine series read off the every-step columns."""
    field = spec.field
    cols = reference_first_columns(spec, order)
    ks = range(1, len(cols[-1]) + 1)
    weights = [rule_value(a, k) for k in ks]
    forcing = [[rule_value(rule, k) for k in ks] for rule in rec.y_rules]
    weighted = [field.reduce(sum(map(mul, weights, col))) for col in cols]
    y, affine = [0] * rec.dim_y, []
    for col in cols:
        affine.append(field.reduce(sum(map(mul, rec.l, y))))
        y = field.reduce_all(
            [sum(map(mul, row, y)) + sum(map(mul, col, f)) for row, f in zip(rec.t, forcing)]
        )
    direct = Series(field, [col[0] for col in cols])
    return direct, Series(field, weighted), Series(field, affine)


@settings(max_examples=25, deadline=None)
@given(case=_delayed_cases())
# (p + 1) / 2 on every band over F_(2^61-1): k = 3, order 3k = 9.
@example(
    case=(
        BandedSpec(F_MERSENNE, 1, {-1: [2**60], 1: [2**60]}, [(1, 1, 2**61 - 2)]),
        1,
        9,
        EventuallyPolySeq(F_MERSENNE, 1, [((2**61 - 2,), (1, 2**61 - 3))]),
        AffineRecursion(
            F_MERSENNE, 1, [[2**61 - 2]], [1],
            [EventuallyPolySeq(F_MERSENNE, 1, [((), (2**60,))])],
        ),
    )
)
def test_delayed_reduction_matches_the_every_step_loop(case):
    spec, s, order, a, rec = case
    direct, weighted, affine = _reference_pipelines(spec, s, order, a, rec)
    assert direct_route(spec, order) == direct
    assert weighted_series(spec, s, a, order) == weighted
    assert affine_pipeline(spec, s, rec, order) == affine
