import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from bandedgf import fixtures
from bandedgf import matrices as cm
from bandedgf.banded import (
    BandedSpec,
    BlockWeights,
    block_reduce,
    clear_denominators,
    clear_spec,
    from_block_weights,
)
from bandedgf.engine import (
    COLUMN_CEILING,
    corner_first_columns,
    cross_check,
    direct_route,
    first_difference,
    fixed_point_route,
    laurent_route,
    symbol_determinant,
)
from bandedgf.errors import ResourceLimitError, RouteMismatchError
from bandedgf.fields import PrimeField, QQ
from bandedgf.matseries import MatrixSeries
from bandedgf.series import Series
from bandedgf.walks import enumerate_sum

from helpers import reference_symbol_determinant

F101 = PrimeField(101)
F_MERSENNE = PrimeField(2**61 - 1)


def test_direct_route_on_first_example():
    assert direct_route(fixtures.ex41_spec(), 3).coeffs == (1, 1, 2, 4)


def test_direct_route_zero_matrix():
    spec = BandedSpec(QQ, 1, {}, [])
    assert direct_route(spec, 4).coeffs == (1, 0, 0, 0, 0)


def test_direct_route_identity_band():
    spec = BandedSpec(QQ, 1, {0: [1]}, [])
    assert direct_route(spec, 5).coeffs == (1, 1, 1, 1, 1, 1)


def test_direct_route_off_band_exception_is_reached():
    # A corner override outside every band must still influence the walk
    # counts; the corner window accounts for it.
    spec = BandedSpec(QQ, 1, {-3: [1]}, [(1, 4, 1)])
    # Paths 1 -> 4 -> 1 give the only return of length 2.
    assert direct_route(spec, 2).coeffs == (1, 0, 1)


def test_fixed_point_motzkin():
    w = BlockWeights(QQ, 1, [[1]], [[1]], [[1]], [[1]])
    assert fixed_point_route(w, 5).gv.coeffs == (1, 1, 2, 4, 9, 21)


def test_fixed_point_quadratic_relation_and_starred_form():
    w = BlockWeights(QQ, 1, [[1]], [[0]], [[1]], [[1]])
    bundle = fixed_point_route(w, 20)
    g = bundle.gw.entry(0, 0)
    # z^2 G^2 - G + 1 = 0
    from bandedgf.series import Series

    z2 = Series.from_ints(QQ, [0, 0, 1], order=20)
    one = Series.one(QQ, 20)
    assert (z2 * g * g - g + one).is_zero()
    # The starred series equals (-1 + 2z + sqrt(1 - 4 z^2)) / (2z (1 - 2z)).
    root = Series.from_ints(QQ, [1, 0, -4], order=21).sqrt()
    num = Series.from_ints(QQ, [-1, 2], order=21) + root
    den = Series.from_ints(QQ, [0, 2, -4], order=21)
    expected = num.div_z_pow(1) * den.div_z_pow(1).invert()
    assert bundle.gwstar.entry(0, 0) == expected.truncate(20)


def test_zero_weights_give_identity():
    w = BlockWeights(QQ, 2, cm.zeros(QQ, 2), cm.zeros(QQ, 2), cm.zeros(QQ, 2), cm.zeros(QQ, 2))
    bundle = fixed_point_route(w, 6)
    assert bundle.gw == MatrixSeries.identity(QQ, 2, 6)
    assert bundle.gwstar == MatrixSeries.identity(QQ, 2, 6)
    assert bundle.gv.coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_laurent_route_matches_fixed_point(weight_factory):
    for s, seed in ((1, 41), (2, 42), (3, 43)):
        w = weight_factory(s, seed=seed)
        fp = fixed_point_route(w, 12)
        lr = laurent_route(w, 12)
        assert fp.gw == lr.gw
        assert fp.gwstar == lr.gwstar


def test_laurent_route_trivial_weights():
    w = BlockWeights(QQ, 1, [[0]], [[0]], [[0]], [[0]])
    lr = laurent_route(w, 5)
    assert lr.m0 == MatrixSeries.identity(QQ, 1, 5)
    assert lr.m1.is_zero() and lr.mm1.is_zero()
    assert lr.gw == MatrixSeries.identity(QQ, 1, 5)


def test_laurent_route_central_sums():
    w = BlockWeights(QQ, 1, [[1]], [[1]], [[1]], [[1]])
    lr = laurent_route(w, 7)
    assert lr.m0.entry(0, 0).coeffs == (1, 1, 3, 7, 19, 51, 141, 393)
    assert lr.gw.entry(0, 0).coeffs == (1, 1, 2, 4, 9, 21, 51, 127)


def test_fixed_point_residual_is_exactly_zero(weight_factory):
    for s, seed in ((1, 51), (2, 52), (3, 53)):
        w = weight_factory(s, seed=seed)
        order = 15
        g = fixed_point_route(w, order).gw
        ident = MatrixSeries.identity(F101, s, order)
        residual = g - ident - g.lmul_const(w.b).shift(1) - (
            (g.rmul_const(w.a) * g).lmul_const(w.c).shift(2)
        )
        assert residual.is_zero()


def test_floor_weight_shift_identity(weight_factory):
    # The starred and plain sums differ by (B - D) z in the inverse.
    for s, seed in ((1, 61), (2, 62)):
        w = weight_factory(s, seed=seed)
        order = 12
        b = fixed_point_route(w, order)
        diff = b.gwstar.inverse() - b.gw.inverse()
        shift = MatrixSeries.from_const(F101, cm.sub(F101, w.b, w.d), order).shift(1)
        assert diff == shift


def test_equal_corner_and_level_weights_collapse_starred_form():
    w = block_reduce(fixtures.ex43_spec(), 3)
    assert w.d == w.b
    bundle = fixed_point_route(w, 15)
    assert bundle.gw == bundle.gwstar


def test_constant_terms(weight_factory):
    w = weight_factory(2, seed=71)
    fp = fixed_point_route(w, 6)
    lr = laurent_route(w, 6)
    ident = cm.identity(F101, 2)
    zero = cm.zeros(F101, 2)
    assert fp.gw.coeffs[0] == ident and fp.gwstar.coeffs[0] == ident
    assert lr.m0.coeffs[0] == ident
    assert lr.m1.coeffs[0] == zero and lr.mm1.coeffs[0] == zero
    assert fp.gv.coeffs[0] == 1


def test_cross_check_passes_on_corpus():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        report, gv = cross_check(spec, 12)
        assert report["checks"]
        assert gv == direct_route(spec, 12)


def test_cross_check_agrees_with_enumeration_oracle(weight_factory):
    # Random weights, wrapped as the block pattern they generate.
    w = weight_factory(2, seed=81)
    spec = from_block_weights(w)
    report, _ = cross_check(spec, 10)
    assert report["oracle_length"] == 10


def test_cross_check_catches_corrupted_weights():
    spec = fixtures.ex41_spec()
    good = block_reduce(spec, 2)
    bad = good.replace("b", 0, 0, 5)
    with pytest.raises(RouteMismatchError) as info:
        cross_check(spec, 6, weights=bad)
    assert info.value.order is not None and info.value.order <= 6
    # A corrupted corner block shows up in the very first coefficient.
    bad_corner = good.replace("d", 0, 0, 9)
    with pytest.raises(RouteMismatchError) as info:
        cross_check(spec, 6, weights=bad_corner)
    assert info.value.order == 1


def test_direct_vs_enumeration_on_random_block_patterns(weight_factory):
    # The scalar corner powering against the walk oracle, via the block
    # pattern spec; starred weights because of the corner block.
    for s, seed in ((1, 91), (2, 92)):
        w = weight_factory(s, seed=seed)
        spec = from_block_weights(w)
        direct = direct_route(spec, 7)
        oracle = enumerate_sum(w, 7, 0, 0, "standard", mode="w_star")
        assert direct.coeffs == tuple(c[0][0] for c in oracle.coeffs)


def test_symbol_determinant_scalar_case():
    # s = 1: det(x - z(Ax^2 + Bx + C)) = -Az x^2 + (1 - Bz) x - Cz.
    w = BlockWeights(QQ, 1, [[2]], [[3]], [[5]], [[3]])
    z0 = QQ.parse("1/7")
    det = symbol_determinant(w, z0)
    assert det == (QQ.parse("-5/7"), QQ.parse("4/7"), QQ.parse("-2/7"))


def test_symbol_determinant_third_example_samples():
    w = block_reduce(fixtures.ex43_spec(), 3)
    for z0 in fixtures.SAMPLE_POINTS:
        det = symbol_determinant(w, z0)
        want = tuple(
            QQ.reduce(sum(c * z0**k for k, c in enumerate(poly)))
            for poly in fixtures.EX43_SYMBOL_DET
        )
        assert det == want


# -- the online fixed-point route against the cubic iteration it replaced -----


def _reference_fixed_point(w, order):
    """The earlier route: re-iterate G -> I + z B G + z^2 C G A G over the
    whole truncated series each pass, then G*^-1 = G^-1 + (B - D) z by two
    series inversions."""
    field, s = w.field, w.s
    g = MatrixSeries.identity(field, s, 0)
    for k in range(1, order + 1):
        g = MatrixSeries(field, s, g.coeffs + (cm.zeros(field, s),))
        bg = g.lmul_const(w.b).shift(1)
        gag = (g.rmul_const(w.a) * g).lmul_const(w.c).shift(2)
        g = MatrixSeries.identity(field, s, k) + bg + gag
    shift = [cm.zeros(field, s)] * (order + 1)
    if order >= 1:
        shift[1] = cm.sub(field, w.b, w.d)
    gwstar = (g.inverse() + MatrixSeries(field, s, shift)).inverse()
    return g, gwstar


def _assert_matches_reference(w, order):
    bundle = fixed_point_route(w, order)
    gw, gwstar = _reference_fixed_point(w, order)
    assert bundle.gw.order == bundle.gwstar.order == order
    assert bundle.gw.coeffs == gw.coeffs
    assert bundle.gwstar.coeffs == gwstar.coeffs
    assert bundle.gv.coeffs == gwstar.entry(0, 0).coeffs


def _over(spec, field):
    doc = spec.to_json_doc()
    doc["field"] = {"prime": field.p}
    return BandedSpec.from_json_doc(doc)


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
@pytest.mark.parametrize("prime", [False, True], ids=["QQ", "F_2^61-1"])
def test_online_route_matches_cubic_reference_on_fixtures(name, prime):
    spec = fixtures.example_spec(name)
    if prime:
        spec = _over(spec, PrimeField(2**61 - 1))
    w = block_reduce(spec)
    for order in (0, 1, 2, 30):
        _assert_matches_reference(w, order)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    s=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    order=st.integers(0, 25),
    zero_a=st.booleans(),
    zero_c=st.booleans(),
    b_is_d=st.booleans(),
)
def test_online_route_matches_cubic_reference_on_random_weights(
    weight_factory, s, seed, order, zero_a, zero_c, b_is_d
):
    w = weight_factory(s, seed=seed)
    zero = cm.zeros(F101, s)
    w = BlockWeights(
        F101, s,
        zero if zero_a else w.a,
        w.b,
        zero if zero_c else w.c,
        w.b if b_is_d else w.d,
    )
    _assert_matches_reference(w, order)


# -- the entry-major route against the block-product route it replaced --------


def _block_product_route(w, order):
    """The earlier online route: every coefficient of G and G*, and each
    factor of P_i = C G_i A, one call to ``matrices.sum_of_products``."""
    field, s = w.field, w.s
    sop = cm.sum_of_products
    ident = cm.identity(field, s)
    g, gstar, p = [ident], [ident], []
    for k in range(1, order + 1):
        g.append(sop(field, [(w.b, g[k - 1]), *zip(reversed(p), g)]))
        gstar.append(sop(field, [(w.d, gstar[k - 1]), *zip(reversed(p), gstar)]))
        p.append(sop(field, [(sop(field, [(w.c, g[k - 1])]), w.a)]))
    return MatrixSeries(field, s, g), MatrixSeries(field, s, gstar)


_ROUTE_SPECIALS = (
    None, "zero_a", "zero_c", "zero_c_row", "zero_a_column", "b_is_d", "all_zero",
)


@st.composite
def _route_weights(draw):
    """Block weights of size 1..6 over Q (true fractions, not cleared), F_2,
    F_101 or F_(2^61-1), zero entries frequent, with one optional special
    that empties part of the support of C G A or ties D to B."""
    s = draw(st.integers(1, 6))
    field = draw(st.sampled_from([QQ, PrimeField(2), F101, F_MERSENNE]))
    scalar = _WIDE_FRACTIONS if field == QQ else st.integers(0, field.p - 1)
    scalar = st.sampled_from([0, 0, 1]) | scalar
    mat = st.lists(st.lists(scalar, min_size=s, max_size=s), min_size=s, max_size=s)
    a, b, c, d = (draw(mat) for _ in range(4))
    special = draw(st.sampled_from(_ROUTE_SPECIALS))
    zero = [[0] * s for _ in range(s)]
    if special in ("zero_a", "all_zero"):
        a = zero
    if special in ("zero_c", "all_zero"):
        c = zero
    if special == "zero_c_row":
        c[draw(st.integers(0, s - 1))] = [0] * s
    if special == "zero_a_column":
        j = draw(st.integers(0, s - 1))
        for row in a:
            row[j] = 0
    if special == "b_is_d":
        d = b
    if special == "all_zero":
        b = d = zero
    return BlockWeights(field, s, a, b, c, d)


def _assert_matches_block_product_route(w, order):
    bundle = fixed_point_route(w, order)
    gw, gwstar = _block_product_route(w, order)
    assert bundle.gw.order == bundle.gwstar.order == order
    assert bundle.gw.coeffs == gw.coeffs
    assert bundle.gwstar.coeffs == gwstar.coeffs
    # Equal values spelled alike: an int, never an integral Fraction.
    assert repr(bundle.gw.coeffs) == repr(gw.coeffs)
    assert repr(bundle.gwstar.coeffs) == repr(gwstar.coeffs)


@settings(max_examples=80, deadline=None)
@given(w=_route_weights(), order=st.integers(0, 40))
def test_entry_major_route_matches_the_block_product_route(w, order):
    # Fraction products cost many times more than residue products, so over
    # Q the size is bounded: s = 2 reaches order 40, s = 3 order 21, s = 6 order 9.
    if w.field == QQ:
        assume(w.s**3 * order**2 <= 8 * 40**2)
    _assert_matches_block_product_route(w, order)


@pytest.mark.parametrize("field", [QQ, F_MERSENNE], ids=["QQ", "F_2^61-1"])
def test_entry_major_route_matches_the_block_product_route_at_full_size(field):
    """Dense weights at the largest size each field draws."""
    rng = random.Random(2061)
    s, order = (3, 21) if field == QQ else (6, 40)

    def scalar():
        if field == QQ:
            return QQ.parse(f"{rng.randint(-5, 5)}/{rng.randint(1, 6)}")
        return rng.randrange(field.p)

    mats = [[[scalar() for _ in range(s)] for _ in range(s)] for _ in range(4)]
    _assert_matches_block_product_route(BlockWeights(field, s, *mats), order)


@st.composite
def _spec_documents(draw, prime=True):
    """Spec documents that block_reduce accepts: period 1..3, bands at -1, 0
    and +1, an optional band at +-2 or +-3, an optional (1, 1) override, over
    Q (true fractions) or, if ``prime``, F_101."""
    period = draw(st.integers(1, 3))
    if prime and draw(st.booleans()):
        field = {"prime": 101}
        scalar = st.integers(0, 100)
    else:
        field = "rational"
        scalar = st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 3))
    values = st.lists(scalar, min_size=period, max_size=period)
    offsets = [-1, 0, 1] + draw(st.lists(st.sampled_from([-3, -2, 2, 3]), max_size=1))
    override = draw(st.lists(scalar, max_size=1))
    return {
        "field": field,
        "period": period,
        "bands": [{"offset": r, "values": draw(values)} for r in offsets],
        "exceptional": [{"i": 1, "j": 1, "value": v} for v in override],
    }


@settings(max_examples=30, deadline=None)
@given(doc=_spec_documents(), order=st.integers(0, 12))
def test_cross_check_passes_on_random_specs(doc, order):
    spec = BandedSpec.from_json_doc(doc)
    report, _ = cross_check(spec, order)
    assert report["oracle_length"] == min(order, 10)
    assert [c["orders_compared"] for c in report["checks"]] == [order] * 4 + [
        min(order, 10)
    ] * 5


def _count_fixed_point_calls(monkeypatch):
    import bandedgf.engine as engine

    calls = []
    real = engine.fixed_point_route

    def counted(w, order):
        calls.append(order)
        return real(w, order)

    monkeypatch.setattr(engine, "fixed_point_route", counted)
    return calls


def test_cross_check_runs_the_fixed_point_route_once(monkeypatch):
    calls = _count_fixed_point_calls(monkeypatch)
    spec = fixtures.ex41_spec()
    report, gv = cross_check(spec, 20)
    assert calls == [20]
    assert gv == direct_route(spec, 20)
    assert report["order"] == 20


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
def test_run_checks_runs_the_fixed_point_route_once(monkeypatch, name):
    calls = _count_fixed_point_calls(monkeypatch)
    report = fixtures.run_checks(name, 24)
    assert report.ok, report.failures()
    assert calls == [24]


# -- the trimmed Laurent stream against the dense store it replaced ------------


def _dense_symbol_powers(field, a, b, c, order):
    """The earlier store: every z^n term of the symbol powers kept densely
    over x-degrees [-n, n]."""
    s = len(a)
    zero = cm.zeros(field, s)
    terms = [(cm.identity(field, s),)]
    for n in range(order):
        term = terms[-1]
        out = []
        for d in range(-(n + 1), n + 2):
            acc = zero
            if abs(d - 1) <= n:
                acc = cm.add(field, acc, cm.mul(field, a, term[d - 1 + n]))
            if abs(d) <= n:
                acc = cm.add(field, acc, cm.mul(field, b, term[d + n]))
            if abs(d + 1) <= n:
                acc = cm.add(field, acc, cm.mul(field, c, term[d + 1 + n]))
            out.append(acc)
        terms.append(tuple(out))
    return terms


def _reference_laurent(w, order):
    """The earlier Laurent route: M_i extracted from the dense store, and
    G*^-1 = G^-1 + (B - D) z by two series inversions."""
    field, s = w.field, w.s
    terms = _dense_symbol_powers(field, w.a, w.b, w.c, order)
    zero = cm.zeros(field, s)

    def extract(i):
        return MatrixSeries(
            field, s, [t[i + n] if abs(i) <= n else zero for n, t in enumerate(terms)]
        )

    m0, m1, mm1 = extract(0), extract(1), extract(-1)
    gw = m0 - (m1 * m0.inverse()) * mm1
    shift = [zero] * (order + 1)
    if order >= 1:
        shift[1] = cm.sub(field, w.b, w.d)
    gwstar = (gw.inverse() + MatrixSeries(field, s, shift)).inverse()
    return m0, m1, mm1, gw, gwstar


def _assert_laurent_matches_reference(w, order):
    bundle = laurent_route(w, order)
    m0, m1, mm1, gw, gwstar = _reference_laurent(w, order)
    assert bundle.gw.order == bundle.gwstar.order == order
    assert bundle.m0.coeffs == m0.coeffs
    assert bundle.m1.coeffs == m1.coeffs
    assert bundle.mm1.coeffs == mm1.coeffs
    assert bundle.gw.coeffs == gw.coeffs
    assert bundle.gwstar.coeffs == gwstar.coeffs
    assert bundle.gv.coeffs == gwstar.entry(0, 0).coeffs


@pytest.mark.parametrize("name", fixtures.EXAMPLE_NAMES)
def test_trimmed_laurent_route_matches_dense_reference_on_fixtures(name):
    w = block_reduce(fixtures.example_spec(name))
    for order in (0, 1, 2, 25):
        _assert_laurent_matches_reference(w, order)


_FRACTIONS = st.builds(
    QQ.parse, st.builds("{}/{}".format, st.integers(-4, 4), st.integers(1, 3))
)


@st.composite
def _block_weights(draw):
    """Block weights of size 1..3 over Q (true fractions) or F_101."""
    s = draw(st.integers(1, 3))
    if draw(st.booleans()):
        field, scalar = QQ, _FRACTIONS
    else:
        field, scalar = F101, st.integers(0, 100)
    row = st.lists(scalar, min_size=s, max_size=s)
    mat = st.lists(row, min_size=s, max_size=s)
    return BlockWeights(field, s, draw(mat), draw(mat), draw(mat), draw(mat))


@settings(max_examples=60, deadline=None)
@given(
    w=_block_weights(),
    order=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 25)),
)
def test_trimmed_laurent_route_matches_dense_reference_on_random_weights(w, order):
    _assert_laurent_matches_reference(w, order)


# -- clearing denominators: routes on L·w against the Fraction routes --


def test_clear_denominators_returns_the_weights_themselves_when_integral():
    w = block_reduce(fixtures.ex42_spec())
    den, same = clear_denominators(w)
    assert den == 1 and same is w
    wp = BlockWeights(F101, 1, [[F101.parse("1/2")]], [[3]], [[1]], [[0]])
    den, same = clear_denominators(wp)
    assert den == 1 and same is wp
    wq = BlockWeights(
        QQ, 1, [[QQ.parse("1/2")]], [[QQ.parse("2/3")]], [[1]], [[QQ.parse("-5/4")]]
    )
    den, scaled = clear_denominators(wq)
    assert den == 12
    assert scaled == BlockWeights(QQ, 1, [[6]], [[8]], [[12]], [[-15]])
    assert all(type(v) is int for m in (scaled.a, scaled.b, scaled.c, scaled.d) for v in m[0])


def test_clear_spec_returns_the_spec_itself_when_integral():
    spec = fixtures.ex42_spec()
    den, same = clear_spec(spec)
    assert den == 1 and same is spec
    doc = {"period": 2, "bands": [{"offset": -1, "values": ["1/2", 3]},
                                  {"offset": 1, "values": [1, "2/3"]}],
           "exceptional": [{"i": 1, "j": 1, "value": "-5/4"}], "block_size": 2}
    sp = BandedSpec.from_json_doc({"field": {"prime": 101}, **doc})
    den, same = clear_spec(sp)
    assert den == 1 and same is sp
    sq = BandedSpec.from_json_doc({"field": "rational", **doc})
    den, scaled = clear_spec(sq)
    assert den == 12
    assert scaled.to_json_doc() == {
        "field": "rational", "period": 2, "block_size": 2,
        "bands": [{"offset": -1, "values": [6, 36]}, {"offset": 1, "values": [12, 8]}],
        "exceptional": [{"i": 1, "j": 1, "value": -15}],
    }
    assert all(type(v) is int for vals in scaled.bands.values() for v in vals)
    assert all(type(v) is int for v in scaled.exceptional.values())
    assert direct_route(scaled, 12).scale_z(QQ.inv(12)) == direct_route(sq, 12)


_WIDE_FRACTIONS = st.builds(
    QQ.parse, st.builds("{}/{}".format, st.integers(-5, 5), st.integers(1, 6))
)


@st.composite
def _fraction_weights(draw):
    """Block weights over Q with true fractions: drawn directly (s = 1..3,
    denominators up to 6) or cut from a random fractional spec document."""
    if draw(st.booleans()):
        return block_reduce(BandedSpec.from_json_doc(draw(_spec_documents(prime=False))))
    s = draw(st.integers(1, 3))
    mat = st.lists(st.lists(_WIDE_FRACTIONS, min_size=s, max_size=s), min_size=s, max_size=s)
    return BlockWeights(QQ, s, draw(mat), draw(mat), draw(mat), draw(mat))


@settings(max_examples=40, deadline=None)
@given(w=_fraction_weights(), order=st.integers(0, 20))
def test_routes_on_cleared_weights_unscale_to_the_fraction_routes(w, order):
    """Coefficient n of every sum on L·w is L^n times the Fraction route's."""
    den, scaled = clear_denominators(w)
    blocks = (scaled.a, scaled.b, scaled.c, scaled.d)
    assert all(type(v) is int for m in blocks for row in m for v in row)
    for route in (fixed_point_route, laurent_route):
        want = route(w, order)
        got = route(scaled, order)
        for name in ("gw", "gwstar", "m0", "m1", "mm1"):
            if getattr(want, name) is None:
                assert getattr(got, name) is None
                continue
            pairs = zip(getattr(got, name).coeffs, getattr(want, name).coeffs)
            for n, (g, c) in enumerate(pairs):
                assert g == tuple(tuple(v * den**n for v in row) for row in c), (name, n)
        assert got.gv.scale_z(QQ.inv(den)).coeffs == want.gv.coeffs


@settings(max_examples=20, deadline=None)
@given(
    w=_fraction_weights(),
    order=st.integers(0, 12),
    enum_length=st.integers(0, 6),
    corrupt=st.booleans(),
)
def test_identity_and_oracle_reports_do_not_see_the_rescale(w, order, enum_length, corrupt):
    """The suite and the oracle report print the same documents whether they
    run on the Fraction weights or on the cleared integral ones, also when
    the walk table is corrupted and checks fail."""
    import bandedgf.identities as identities
    from bandedgf.walks import u_table as real_u_table

    def corrupt_u_table(weights, order):
        table = real_u_table(weights, order)
        if order < 2:
            return table
        rows = [list(row) for row in table.rows]
        tampered = [list(r) for r in rows[2][0]]
        tampered[0][0] += 1
        rows[2] = (tuple(tuple(r) for r in tampered),) + tuple(rows[2][1:])
        return type(table)(table.field, table.s, tuple(rows))

    def reports():
        return (
            identities.run_identity_suite(w, order, enum_length).to_json_doc(),
            identities.oracle_comparison(w, enum_length).to_json_doc(),
        )

    with pytest.MonkeyPatch.context() as mp:
        if corrupt:
            mp.setattr(identities, "u_table", corrupt_u_table)
        cleared = reports()
        mp.setattr(identities, "clear_denominators", lambda w: (1, w))
        assert reports() == cleared
    if not corrupt:
        assert cleared[0]["status"] == cleared[1]["status"] == "pass"


# -- the first-column frontier against the untrimmed corner loop ------------------


def _untrimmed_first_columns(spec, order):
    """Every step computes all k rows of the corner, as before the frontier."""
    field = spec.field
    k = order * spec.bandwidth + max(spec.exceptional_bound, 1)
    rows = []
    for i in range(1, k + 1):
        cols = {i + r for r in spec.bands if 1 <= i + r <= k}
        cols.update(j for (ei, j) in spec.exceptional if ei == i and j <= k)
        row = [(j - 1, spec.entry(i, j)) for j in sorted(cols)]
        rows.append([(j, v) for j, v in row if v != field.zero])
    x = [field.zero] * k
    x[0] = field.one
    out = [x]
    for _ in range(order):
        x = [
            field.reduce(sum(v * x[j] for j, v in row)) if row else field.zero
            for row in rows
        ]
        out.append(x)
    return out


@st.composite
def _frontier_specs(draw):
    """Specs with bands at any offsets in -3..3 (zero and unit values frequent)
    and exceptional entries anywhere in the 8x8 corner (zero overrides included)
    or in row 1 only, over Q, F_101 or F_{2^61-1}.  The exceptional bound m runs
    through 0..8, so the first row of the band slices, m + 1, falls on every
    residue mod the period."""
    field = draw(st.sampled_from([QQ, F101, F_MERSENNE]))
    if field == QQ:
        scalar = st.builds(
            QQ.parse, st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3))
        )
    else:
        scalar = st.integers(0, field.p - 1)
    scalar = scalar | st.sampled_from([0, 1])
    period = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-3, 3), max_size=4, unique=True))
    bands = {r: draw(st.lists(scalar, min_size=period, max_size=period)) for r in offsets}
    rows = st.just(1) if draw(st.booleans()) else st.integers(1, 8)
    cells = st.tuples(rows, st.integers(1, 8), scalar)
    return BandedSpec(field, period, bands, draw(st.lists(cells, max_size=5)))


# An 8x8 exceptional square with one band below the diagonal.
_SQUARE_8 = BandedSpec(QQ, 2, {-1: [1, 2], 0: [0, 3], 2: [Fraction(1, 3), 1]},
                       [(8, 8, 2), (1, 5, 1), (5, 1, 1)])


@settings(max_examples=150, deadline=None)
@given(spec=_frontier_specs(), order=st.integers(0, 25))
# Row 1 of the exceptional square reads row 3, the last row of V e_1's frontier.
@example(spec=BandedSpec(QQ, 1, {-2: [1], 2: [1]}, [(1, 1, 1)]), order=3)
# Bands constant on every residue, one unit-stride slice each, next to bands
# that vary by residue, a zero band, and squares of sizes 0..4.
@example(spec=BandedSpec(QQ, 3, {-2: [1, 1, 1], 1: [1, 1, 1], 0: [2, 0, 1]}, [(1, 1, 1)]),
         order=9)
@example(spec=BandedSpec(QQ, 2, {-1: [Fraction(2, 3)] * 2, 1: [Fraction(2, 3)] * 2},
                         [(2, 3, 5)]), order=8)
@example(spec=BandedSpec(F101, 3, {-3: [7, 7, 7], 2: [100, 100, 100], 0: [0, 0, 0]},
                         [(4, 1, 3)]), order=10)
@example(spec=BandedSpec(F_MERSENNE, 2, {-1: [5, 5], 1: [1, 2]}), order=12)
# Every band and exceptional value an int over Q, negative and non-unit ones
# among them, and a 3x3 square: every column is a list of ints.
@example(spec=BandedSpec(QQ, 2, {-2: [3, -1], 0: [-2, 5], 1: [1, 4]},
                         [(1, 1, -3), (2, 3, 2), (3, 1, 7)]), order=12)
# Every band is zero on the residue class of rows 2, 5, 8, ...: they stay zero.
@example(spec=BandedSpec(QQ, 3, {-1: [1, 0, 2], 1: [Fraction(1, 2), 0, 1]}, [(1, 1, 1)]),
         order=10)
# Bands constant on residues next to a band that varies by residue, at
# offsets +-3 with period 3.
@example(spec=BandedSpec(QQ, 3, {-3: [2, 2, 2], 0: [1, 1, 1], 3: [1, -4, 0]}, [(1, 2, 1)]),
         order=8)
# m = 8: at orders 0-2 the column ends at most two rows past the square, and
# with no band below the diagonal it never leaves it.
@example(spec=_SQUARE_8, order=0)
@example(spec=_SQUARE_8, order=1)
@example(spec=_SQUARE_8, order=2)
@example(spec=BandedSpec(QQ, 2, {0: [1, 2], 2: [Fraction(1, 3), 1]},
                         [(8, 8, 2), (1, 5, 1), (5, 1, 1)]), order=2)
# The built-in examples, integral as annihilate and Section 5 read them.
@example(spec=fixtures.ex41_spec(), order=15)
@example(spec=fixtures.ex43_spec(), order=12)
@example(spec=fixtures.ex512_spec(), order=20)
def test_first_column_frontier_matches_untrimmed_corner_loop(spec, order):
    """Column t holds exactly the rows 1..max(m, 1) + t·d, d the downward
    reach of the bands with a nonzero value; there it equals the untrimmed
    loop's column, and below them the loop's column is zero."""
    down = max([0, *(-r for r, vals in spec.bands.items() if any(vals))])
    got = list(corner_first_columns(spec, order))
    full = _untrimmed_first_columns(spec, order)
    assert len(got) == len(full) == order + 1
    for t, (col, ref) in enumerate(zip(got, full)):
        f = max(spec.exceptional_bound, 1) + t * down
        assert len(col) == f
        assert col == ref[:f]
        assert not any(ref[f:])
    # Canonical scalars: ints over Q unless truly fractional, residues in [0, p).
    if spec.field == QQ:
        assert all(type(v) is int or v.denominator > 1 for col in got for v in col)
    else:
        assert all(type(v) is int and 0 <= v < spec.field.p for col in got for v in col)


def test_first_columns_refuse_a_negative_order_at_the_call():
    with pytest.raises(ValueError):
        corner_first_columns(fixtures.ex41_spec(), -1)


def test_first_columns_refuse_past_the_column_ceiling_at_the_call():
    # One band at offset -1: the last column has 1 + order rows, which may
    # reach COLUMN_CEILING and not pass it; no column is built here.
    spec = BandedSpec(QQ, 1, {-1: [1], 1: [1]})
    corner_first_columns(spec, COLUMN_CEILING - 1)
    with pytest.raises(ResourceLimitError, match=f"columns of {COLUMN_CEILING + 1} rows"):
        corner_first_columns(spec, COLUMN_CEILING)
    with pytest.raises(ResourceLimitError):
        direct_route(BandedSpec(QQ, 1, {-16_000: [1]}), 60)


def test_fixed_point_route_refuses_a_negative_order():
    with pytest.raises(ValueError):
        fixed_point_route(block_reduce(fixtures.ex41_spec()), -1)


def _sparse_weights(rng, s, field):
    """Random block weights with about a third of the entries nonzero: true
    fractions over Q, residues over F_p."""
    def value():
        if rng.random() < 0.65:
            return field.zero
        if field == QQ:
            return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
        return field.reduce(rng.randrange(1, min(field.p, 10**6)))

    mats = [[[value() for _ in range(s)] for _ in range(s)] for _ in range(4)]
    return BlockWeights(field, s, *mats)


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), F101, F_MERSENNE], ids=["QQ", "F_2", "F_101", "F_2^61-1"]
)
def test_symbol_determinant_matches_the_leibniz_reference(s, field):
    rng = random.Random(1000 * s + field.characteristic % 1000)
    if field == QQ:
        points = [0, 1, Fraction(-2, 3), Fraction(5, 7)]
    else:
        points = sorted({0, 1, field.reduce(rng.randrange(field.p))})
    for trial in range(3):
        w = _sparse_weights(rng, s, field)
        for z0 in points:
            got = symbol_determinant(w, z0)
            assert len(got) == 2 * s + 1
            assert got == reference_symbol_determinant(w, z0), (trial, z0)


@st.composite
def _differing_pairs(draw):
    """Two scalar or matrix series of independent orders over Q or F_101,
    the second a copy of the first with a few entries redrawn."""
    field = draw(st.sampled_from([QQ, F101]))
    if field == QQ:
        scalar = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    else:
        scalar = st.integers(0, 100)
    s = draw(st.one_of(st.none(), st.integers(1, 3)))
    order_a, order_b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    side = range(s or 1)
    cells = [(k, r, c) for k in range(max(order_a, order_b) + 1) for r in side for c in side]
    first = {cell: draw(scalar) for cell in cells}
    second = dict(first)
    for cell in draw(st.lists(st.sampled_from(cells), max_size=3)):
        second[cell] = draw(scalar)

    def build(values, order):
        if s is None:
            return Series(field, [values[k, 0, 0] for k in range(order + 1)])
        return MatrixSeries(
            field, s,
            [[[values[k, r, c] for c in range(s)] for r in range(s)] for k in range(order + 1)],
        )

    return build(first, order_a), build(second, order_b), first, second, s


@settings(max_examples=200, deadline=None)
@given(pair=_differing_pairs())
def test_first_difference_finds_the_least_differing_index_and_entry(pair):
    a, b, first, second, s = pair
    n = min(a.order, b.order)
    differing = sorted(cell for cell in first if cell[0] <= n and first[cell] != second[cell])
    got = first_difference(a, b)
    assert (got is None) == (a.truncate(n) == b.truncate(n))
    if not differing:
        assert got is None
    else:
        k, r, c = differing[0]
        assert got == (k, None if s is None else (r + 1, c + 1))
    assert first_difference(b, a) == got
