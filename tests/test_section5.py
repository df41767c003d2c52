import ast
import inspect
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandedgf import fixtures, section5
from bandedgf import matrices as cm
from bandedgf.banded import (
    BandedSpec,
    BlockWeights,
    block_reduce,
    checked_block_size,
    from_block_weights,
)
from bandedgf.engine import fixed_point_route
from bandedgf.errors import ShapeError
from bandedgf.fields import PrimeField, QQ
from bandedgf.identities import check_descent_identities
from bandedgf.matseries import MatrixSeries
from bandedgf.section5 import (
    AffineRecursion,
    EventuallyPolySeq,
    _rule_tables,
    affine_pipeline,
    recursion_from_json_doc,
    weight_rules_from_json_doc,
    weighted_series,
)
from bandedgf.series import Series
from bandedgf.walks import u_table

from helpers import constant_rules, rule_value

F101 = PrimeField(101)


def corner_loop_weights():
    return block_reduce(fixtures.ex512_spec(), 1)


def rung(w, r, order):
    """G*_r to the given order, as the library computes it."""
    return u_table(w, order).binomial_sums(r)[r]


def reference_rung(w, r, order):
    """G*_r by its definition, one rung and one block at a time."""
    field, s = w.field, w.s
    table = u_table(w, order)
    coeffs = []
    for n in range(order + 1):
        acc = cm.zeros(field, s)
        for k in range(r, n + 1):
            binom = field.reduce(comb(k, r))
            acc = cm.add(field, acc, [[binom * v for v in row] for row in table.value(k + 1, n)])
        coeffs.append(acc)
    return MatrixSeries(field, s, coeffs)


def descent_failure(w, rmax, order):
    fp = fixed_point_route(w, order)
    gaz = fp.gw.rmul_const(w.a).shift(1)
    return check_descent_identities(u_table(w, order), gaz, fp.gwstar, rmax)


def test_binomial_sums_weight_each_start_by_the_reduced_binomial():
    # With only down steps, the one standard walk of length n to 0 starts at
    # height n, so the z^n coefficient of G*_r is C(n, r) in the field; the
    # binomial exists also where r! vanishes mod p.
    for field in (QQ, F101, PrimeField(2), PrimeField(3), PrimeField(5)):
        p = field.characteristic
        w = BlockWeights(field, 1, [[1]], [[0]], [[0]], [[0]])
        ladder = u_table(w, 11).binomial_sums(12)
        for k in range(12):
            for r in range(k + 2):
                assert ladder[r].coeffs[k] == ((comb(k, r) % p if p else comb(k, r),),)


@st.composite
def _ladder_weights(draw):
    """Block weights (s = 1..3) over Q with true fractions, F_2, F_3 or F_101."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), F101]))
    s = draw(st.integers(1, 3))
    if field is QQ:
        value = st.builds(Fraction, st.integers(-5, 5), st.integers(2, 6)).map(QQ.reduce)
    else:
        value = st.integers(0, field.p - 1)
    mat = st.lists(st.lists(value, min_size=s, max_size=s), min_size=s, max_size=s)
    return BlockWeights(field, s, draw(mat), draw(mat), draw(mat), draw(mat))


@settings(max_examples=80, deadline=None)
@given(w=_ladder_weights(), order=st.integers(0, 12), rmax=st.integers(0, 4))
def test_binomial_sums_match_the_per_rung_definition(w, order, rmax):
    want = [reference_rung(w, r, order) for r in range(rmax + 1)]
    assert u_table(w, order).binomial_sums(rmax) == want


def test_weighted_ladder_base_series():
    w = corner_loop_weights()
    g0 = rung(w, 0, 10)
    assert g0.entry(0, 0).coeffs == tuple(2**n for n in range(11))


def test_weighted_ladder_next_series():
    w = corner_loop_weights()
    g1 = rung(w, 1, 10)
    # (-1 + 2z + sqrt(1 - 4 z^2)) / (2 (1 - 2z)^2), expanded exactly.
    root = Series.from_ints(QQ, [1, 0, -4], order=10).sqrt()
    num = Series.from_ints(QQ, [-1, 2], order=10) + root
    den = Series.from_ints(QQ, [2, -8, 8], order=10)
    assert g1.entry(0, 0) == num * den.invert()


def test_high_index_ladder_vanishes():
    w = corner_loop_weights()
    order = 6
    assert rung(w, order + 1, order).is_zero()


def test_descent_identities_on_random_weights(weight_factory):
    w = weight_factory(2, seed=101)
    assert descent_failure(w, 2, 12) is None


def test_descent_identities_degenerate_down_weight():
    # With a zero down-step weight the ladder collapses: G*_0 equals the
    # starred sum and every higher rung vanishes.
    f = QQ
    w = BlockWeights(f, 1, [[0]], [[1]], [[1]], [[1]])
    assert descent_failure(w, 3, 10) is None
    bundle = fixed_point_route(w, 10)
    assert rung(w, 0, 10) == bundle.gwstar
    assert rung(w, 1, 10).is_zero()


def test_section5_names_no_block_weights():
    # The pipelines read the spec's first columns; s only names residues.
    tree = ast.parse(inspect.getsource(section5))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"BlockWeights", "block_reduce"}


def test_eventually_poly_accessor():
    # Residues mod 2: first class has explicit exceptions then a line in k.
    seq = EventuallyPolySeq(QQ, 2, [((7, 9), (1, 2)), ((), (0, 0, 1))])
    assert rule_value(seq, 1) == 7      # i=1, k=0 -> initial[0]
    assert rule_value(seq, 3) == 9      # i=1, k=1 -> initial[1]
    assert rule_value(seq, 5) == 5      # i=1, k=2 -> 1 + 2*2
    assert rule_value(seq, 2) == 0      # i=2, k=0 -> 0 + 0 + 0
    assert rule_value(seq, 6) == 4      # i=2, k=2 -> k^2
    with pytest.raises(ValueError):
        rule_value(seq, 0)


# k(k+1)/2: integer values whose coefficients clear only with 2.
TRIANGULAR = ((), (0, Fraction(1, 2), Fraction(1, 2)))


@st.composite
def _rule_sets(draw):
    """A few rule sets over one field, order n and residue count s: Q with
    true fractions, F_2, F_101 or F_(2^61-1); initial lists up to n + 3 long
    (past n + 1, where they cover every index the sums read), empty
    polynomials, and the triangular rule k(k+1)/2 where 2 is invertible."""
    field = draw(st.sampled_from([QQ, PrimeField(2), F101, PrimeField(2**61 - 1)]))
    if field == QQ:
        value = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)).map(QQ.reduce)
    else:
        value = st.integers(0, field.p - 1)
    order, s = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    rule = st.tuples(st.lists(value, max_size=order + 3), st.lists(value, max_size=4))
    if field.characteristic != 2:
        half = field.inv(2)
        rule |= st.just(((), (0, half, half)))
    rules = st.lists(rule, min_size=s, max_size=s).map(
        lambda rs: EventuallyPolySeq(field, s, rs)
    )
    return field, order, s, draw(st.lists(rules, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(data=_rule_sets())
def test_cleared_rule_tables_equal_m_times_the_accessor(data):
    field, order, s, rules = data
    count = s * (order + 1)
    den, tables = _rule_tables(field, rules, count)
    coeffs = [v for rule in rules for initial, poly in rule.rules for v in initial + poly]
    if field == QQ:
        assert den == lcm(*(Fraction(v).denominator for v in coeffs))
    else:
        assert den == 1
    for rule, table in zip(rules, tables):
        assert len(table) == count
        for index in range(1, count + 1):
            assert type(table[index - 1]) is int
            assert table[index - 1] == field.reduce(den * rule_value(rule, index))


def test_cleared_rule_tables_keep_the_coefficients_lcm():
    # k(k+1)/2 takes integer values, but M is the lcm of the coefficients.
    den, (table,) = _rule_tables(QQ, [EventuallyPolySeq(QQ, 1, [TRIANGULAR])], 6)
    assert den == 2
    assert table == [2 * k * (k + 1) // 2 for k in range(6)]


def test_weighted_series_constant_weights_match_ladder_base():
    spec = fixtures.ex512_spec()
    a = constant_rules(QQ, 1, 1)
    out = weighted_series(spec, 1, a, 10)
    assert out.coeffs == tuple(2**n for n in range(11))


def test_weighted_series_unit_weight_picks_corner_series():
    spec = fixtures.ex512_spec()
    a = EventuallyPolySeq(QQ, 1, [((1,), (0,))])
    out = weighted_series(spec, 1, a, 10)
    gv = fixed_point_route(block_reduce(spec, 1), 10).gv
    assert out == gv


def test_weighted_series_linear_weight_matches_next_rung():
    spec = fixtures.ex512_spec()
    a = EventuallyPolySeq(QQ, 1, [((), (0, 1))])  # a_{1+k} = k
    out = weighted_series(spec, 1, a, 10)
    g1 = rung(block_reduce(spec, 1), 1, 10)
    assert out == g1.entry(0, 0)


def test_weighted_series_is_linear_in_the_weights(weight_factory):
    rng = random.Random(313)
    spec = from_block_weights(weight_factory(2, seed=103))
    s = checked_block_size(spec, None)

    def rand_rules(lengths):
        return EventuallyPolySeq(
            F101,
            s,
            [
                (
                    tuple(rng.randrange(101) for _ in range(n)),
                    tuple(rng.randrange(101) for _ in range(rng.randrange(1, 3))),
                )
                for n in lengths
            ],
        )

    for _ in range(3):
        # Pointwise addition of the rules is the sum sequence only when both
        # rules switch to their polynomials at the same index.
        lengths = [rng.randrange(3) for _ in range(s)]
        a_rule, b_rule = rand_rules(lengths), rand_rules(lengths)
        combo = EventuallyPolySeq(
            F101,
            s,
            [
                (
                    tuple(
                        (x + y) % 101
                        for x, y in zip(a_rule.rules[i][0], b_rule.rules[i][0])
                    ),
                    tuple(
                        (x + y) % 101
                        for x, y in zip(
                            list(a_rule.rules[i][1]) + [0] * 3,
                            list(b_rule.rules[i][1]) + [0] * 3,
                        )
                    ),
                )
                for i in range(s)
            ],
        )
        sa = weighted_series(spec, s, a_rule, 8)
        sb = weighted_series(spec, s, b_rule, 8)
        sc = weighted_series(spec, s, combo, 8)
        assert not sa.is_zero()
        assert sc == sa + sb


def test_weighted_series_against_corner_powers():
    # Independent route: read (V^n)_{k,1} off the standard-walk table, whose
    # block u_k^(n) holds the corner powers' first column in entry (1, 1).
    spec = fixtures.ex512_spec()
    a = EventuallyPolySeq(QQ, 1, [((3,), (5, 1))])
    order = 9
    out = weighted_series(spec, 1, a, order)
    table = u_table(block_reduce(spec, 1), order)
    for n in range(order + 1):
        expected = sum(
            rule_value(a, k + 1) * table.value(k + 1, n)[0][0] for k in range(order + 1)
        )
        assert out.coeffs[n] == expected


def test_affine_pipeline_reference_values():
    spec = fixtures.ex512_spec()
    out = affine_pipeline(spec, 1, fixtures.ex512_recursion(), 6)
    assert out.coeffs[:3] == (0, 6, 116)


def test_affine_pipeline_zero_forcing():
    spec = fixtures.ex512_spec()
    rec = AffineRecursion(
        QQ, 2, [[16, 4], [0, 4]], [1, 0],
        [constant_rules(QQ, 1, 0), constant_rules(QQ, 1, 0)],
    )
    assert affine_pipeline(spec, 1, rec, 8).is_zero()


def test_affine_pipeline_one_step_memory_reduces_to_weighted_sum():
    # T = 0 and forcing vector e_1 for every index: the readout repeats the
    # constant-weight sums delayed by one order.
    spec = fixtures.ex512_spec()
    rec = AffineRecursion(
        QQ, 1, [[0]], [1], [constant_rules(QQ, 1, 1)]
    )
    out = affine_pipeline(spec, 1, rec, 8)
    base = weighted_series(spec, 1, constant_rules(QQ, 1, 1), 7)
    assert out.coeffs == (0,) + base.coeffs


def test_pipelines_refuse_a_negative_order():
    # ValueError, as the first-column layer raises it, and not a precision error
    # from reading the affine readout one order later.
    spec = fixtures.ex512_spec()
    with pytest.raises(ValueError):
        weighted_series(spec, 1, constant_rules(QQ, 1, 1), -1)
    with pytest.raises(ValueError):
        affine_pipeline(spec, 1, fixtures.ex512_recursion(), -1)


def test_affine_pipeline_shape_checks():
    spec = fixtures.ex512_spec()
    with pytest.raises(ShapeError):
        AffineRecursion(QQ, 2, [[1, 0], [0, 1]], [1], [
            constant_rules(QQ, 1, 0),
            constant_rules(QQ, 1, 0),
        ])
    rec = AffineRecursion(
        QQ, 1, [[1]], [1], [constant_rules(QQ, 2, 1)]
    )
    with pytest.raises(ShapeError):
        affine_pipeline(spec, 1, rec, 4)


def test_master_square_root_identity():
    spec = fixtures.ex512_spec()
    order = 20
    s_series = affine_pipeline(spec, 1, fixtures.ex512_recursion(), order)

    def poly(cs):
        return Series.from_ints(QQ, cs, order=order)

    lhs = poly([1, -16]) * poly([1, -4]) * poly([1, -4, 4]) * s_series
    rhs = poly([0, 4, -16, 16]) + poly([0, 2, -12]) * poly([1, 0, -4]).sqrt()
    assert lhs == rhs


def test_intermediate_square_root_identity():
    # (1-16z)(1-4z) S = (z - 4z^2)(8 G*_1 + 6 G*_0) + 4z^2 (G*_0 - G*),
    # with every ingredient computed by its own route.
    spec = fixtures.ex512_spec()
    w = block_reduce(spec, 1)
    order = 18
    s_series = affine_pipeline(spec, 1, fixtures.ex512_recursion(), order)
    g0 = rung(w, 0, order).entry(0, 0)
    g1 = rung(w, 1, order).entry(0, 0)
    gwstar = fixed_point_route(w, order).gwstar.entry(0, 0)

    def poly(cs):
        return Series.from_ints(QQ, cs, order=order)

    lhs = poly([1, -16]) * poly([1, -4]) * s_series
    rhs = poly([0, 1, -4]) * (g1.scale(8) + g0.scale(6)) + poly([0, 0, 4]) * (
        g0 - gwstar
    )
    assert lhs == rhs


def test_weight_rules_json_round_trip():
    doc = {"weights": [{"residue": 1, "initial": [6], "poly": [6, 8]}]}
    rules = weight_rules_from_json_doc(doc, QQ, 1)
    assert rule_value(rules, 1) == 6
    assert rule_value(rules, 2) == 14
    assert rule_value(rules, 3) == 22


def test_recursion_json_round_trip():
    doc = {
        "dimY": 2, "T": [[16, 4], [0, 4]], "l": [1, 0],
        "y_rule": [
            {"weights": [{"residue": 1, "initial": [6], "poly": [6, 8]}]},
            {"weights": [{"residue": 1, "initial": [0], "poly": [1]}]},
        ],
    }
    rec = recursion_from_json_doc(doc, QQ, 1)
    out = affine_pipeline(fixtures.ex512_spec(), 1, rec, 4)
    assert out.coeffs[:3] == (0, 6, 116)


def test_weight_rules_json_rejects_bad_documents():
    from bandedgf.errors import SpecFormatError

    with pytest.raises(SpecFormatError):
        weight_rules_from_json_doc({"weights": [{"residue": 3, "poly": [1]}]}, QQ, 2)
    with pytest.raises(SpecFormatError):
        weight_rules_from_json_doc({"weights": [{"residue": 1, "poly": [1]}]}, QQ, 2)


# -- the walk-table pipeline as a test-only reference ---------------------------


def _reference_weighted_series(spec, a, order):
    """Weighted corner sums read from entry (i, 1) of each table block u_{k+1}^(n)."""
    w = block_reduce(spec)
    field, s = w.field, w.s
    table = u_table(w, order)
    coeffs = []
    for n in range(order + 1):
        acc = field.zero
        for k in range(n + 1):
            u = table.value(k + 1, n)
            for i in range(1, s + 1):
                v = u[i - 1][0]
                if v != field.zero:
                    acc = acc + rule_value(a, i + s * k) * v
        coeffs.append(field.reduce(acc))
    return Series(field, coeffs)


def _reference_affine_pipeline(spec, rec, order):
    """Affine readout series driven by the same table entries."""
    w = block_reduce(spec)
    field, s, d = w.field, w.s, rec.dim_y
    table = u_table(w, order)
    y = [field.zero] * d
    coeffs = []
    for n in range(order + 1):
        coeffs.append(field.reduce(sum(a * b for a, b in zip(rec.l, y))))
        if n == order:
            break
        nxt = [sum(a * b for a, b in zip(row, y)) for row in rec.t]
        for k in range(n + 1):
            u = table.value(k + 1, n)
            for i in range(1, s + 1):
                v = u[i - 1][0]
                if v != field.zero:
                    yk = [rule_value(rule, i + s * k) for rule in rec.y_rules]
                    for coord in range(d):
                        nxt[coord] = nxt[coord] + v * yk[coord]
        y = [field.reduce(x) for x in nxt]
    return Series(field, coeffs)


def _random_scalar(rng, field, integral=False):
    if field == QQ:
        return Fraction(rng.randint(-4, 4), 1 if integral else rng.randint(1, 3))
    return field.reduce(rng.randrange(101))


def _random_spec(rng, field):
    """A banded spec with random periodic bands and a (1, 1) override."""
    period = rng.randint(1, 3)
    bands = {
        r: [_random_scalar(rng, field) for _ in range(period)]
        for r in range(-2, 3)
        if rng.random() < 0.6
    }
    return BandedSpec(field, period, bands, [(1, 1, _random_scalar(rng, field))])


def _random_rules(rng, field, s, integral):
    return EventuallyPolySeq(
        field,
        s,
        [
            (
                [_random_scalar(rng, field, integral) for _ in range(rng.randint(0, 2))],
                [_random_scalar(rng, field, integral) for _ in range(rng.randint(0, 3))],
            )
            for _ in range(s)
        ],
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 10**6),
    prime=st.booleans(),
    from_weights=st.booleans(),
    integral=st.booleans(),
    order=st.integers(0, 20),
)
def test_first_column_pipeline_matches_walk_table_reference(
    weight_factory, seed, prime, from_weights, integral, order
):
    """Over Q the weight and forcing rules are all-integer or carry
    denominators, so the cleared sums are divided by M = 1 and by M > 1."""
    rng = random.Random(seed)
    field = F101 if prime else QQ
    if from_weights:
        spec = from_block_weights(weight_factory(rng.randint(1, 3), seed, field))
    else:
        spec = _random_spec(rng, field)
    s = checked_block_size(spec, None)
    a = _random_rules(rng, field, s, integral)
    assert weighted_series(spec, s, a, order) == _reference_weighted_series(spec, a, order)
    d = rng.randint(1, 3)
    rec = AffineRecursion(
        field,
        d,
        [[_random_scalar(rng, field) for _ in range(d)] for _ in range(d)],
        [_random_scalar(rng, field) for _ in range(d)],
        [_random_rules(rng, field, s, integral) for _ in range(d)],
    )
    assert affine_pipeline(spec, s, rec, order) == _reference_affine_pipeline(spec, rec, order)
