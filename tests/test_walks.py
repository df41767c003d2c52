import random
from fractions import Fraction
from itertools import accumulate, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bandedgf import matrices as cm
from bandedgf.banded import BlockWeights, block_reduce
from bandedgf.engine import cross_check
from bandedgf.fields import PrimeField, QQ
from bandedgf.fixtures import example_spec
from bandedgf.identities import oracle_comparison, run_identity_suite
from bandedgf.matseries import MatrixSeries
from bandedgf.walks import class_sums, u_table

from helpers import (
    WALK_FILTERS,
    concat,
    enumerate_sum,
    is_primitive,
    is_standard,
    weight,
)

F101 = PrimeField(101)


def scalar_weights(a, b, c, d, field=QQ):
    return BlockWeights(field, 1, [[a]], [[b]], [[c]], [[d]])


@pytest.fixture
def motzkin_weights():
    return scalar_weights(1, 1, 1, 1)


def rand_weights(rng, s, field=F101, special=None):
    """Random block weights, residues of 0..100 over a prime field and true
    fractions over Q; ``special`` is None, "zero_a", "zero_c", "zero_d" or
    "b_is_d"."""
    def mat():
        if field is QQ:
            return [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s)] for _ in range(s)]
        return [[field.reduce(rng.randrange(101)) for _ in range(s)] for _ in range(s)]

    a, b, c, d = mat(), mat(), mat(), mat()
    zero = [[0] * s for _ in range(s)]
    if special == "zero_a":
        a = zero
    elif special == "zero_c":
        c = zero
    elif special == "zero_d":
        d = zero
    elif special == "b_is_d":
        d = b
    return BlockWeights(field, s, a, b, c, d)


def test_weight_of_trivial_walk_is_identity(weight_factory):
    w = weight_factory(3, seed=1)
    assert weight(w, (0,)) == cm.identity(F101, 3)
    assert weight(w, (5,), mode="w_star") == cm.identity(F101, 3)


def test_weight_of_up_down_excursion(weight_factory):
    w = weight_factory(2, seed=2)
    ca = cm.mul(F101, w.c, w.a)
    assert weight(w, (0, 1, 0)) == ca
    assert weight(w, (0, 1, 0), mode="w_star") == ca


def test_weight_level_step_at_floor(weight_factory):
    w = weight_factory(2, seed=3)
    assert weight(w, (0, 0)) == w.b
    assert weight(w, (0, 0), mode="w_star") == w.d
    assert weight(w, (1, 1), mode="w_star") == w.b


def test_standard_and_primitive_classification():
    assert is_standard((0, 1, 1, 0)) and is_primitive((0, 1, 1, 0))
    assert is_standard((0, 1, 0, 1, 0)) and not is_primitive((0, 1, 0, 1, 0))
    assert not is_standard((0, -1, 0))
    assert is_primitive((0, -1, 0))
    assert not is_primitive((0,))
    assert not is_primitive((0, 1))


def test_multiplicativity_over_concatenation(weight_factory):
    rng = random.Random(17)
    w = weight_factory(2, seed=5)
    for _ in range(20):
        alpha = [rng.randrange(-2, 3)]
        for _ in range(rng.randrange(6)):
            alpha.append(alpha[-1] + rng.choice((-1, 0, 1)))
        beta = [rng.randrange(-2, 3)]
        for _ in range(rng.randrange(6)):
            beta.append(beta[-1] + rng.choice((-1, 0, 1)))
        combined = concat(alpha, beta)
        assert weight(w, combined) == cm.mul(
            F101, weight(w, alpha), weight(w, beta)
        )


def test_starred_multiplicativity_for_closed_walks(weight_factory):
    rng = random.Random(23)
    w = weight_factory(2, seed=6)
    def closed_walk():
        while True:
            pts = [0]
            for _ in range(6):
                pts.append(pts[-1] + rng.choice((-1, 0, 1)))
            if pts[-1] == 0:
                return pts
    for _ in range(10):
        alpha, beta = closed_walk(), closed_walk()
        assert weight(w, concat(alpha, beta), mode="w_star") == cm.mul(
            F101, weight(w, alpha, mode="w_star"), weight(w, beta, mode="w_star")
        )


def test_motzkin_numbers(motzkin_weights):
    out = enumerate_sum(motzkin_weights, 5, 0, 0, "standard")
    assert out.entry(0, 0).coeffs == (1, 1, 2, 4, 9, 21)


def test_aerated_catalan(motzkin_weights):
    w = scalar_weights(1, 0, 1, 1)
    out = enumerate_sum(w, 6, 0, 0, "standard")
    assert out.entry(0, 0).coeffs == (1, 0, 1, 0, 2, 0, 5)


def test_length_zero_enumeration(weight_factory):
    w = weight_factory(2, seed=7)
    out = enumerate_sum(w, 0, 0, 0, "all")
    assert out.coeffs == (cm.identity(F101, 2),)


def test_primitive_filter_needs_matching_endpoints(weight_factory):
    w = weight_factory(1, seed=8)
    assert enumerate_sum(w, 4, 1, 0, "primitive").is_zero()


def _walks_by_definition(start, length):
    """Every walk of length 0..length from ``start``: each step sequence, its
    heights by accumulation."""
    for n in range(length + 1):
        for steps in product((-1, 0, 1), repeat=n):
            yield tuple(accumulate(steps, initial=start))


def _in_class(points, walk_filter):
    standard = walk_filter in ("standard", "primitive_standard")
    primitive = walk_filter in ("primitive", "primitive_standard")
    return (not standard or is_standard(points)) and (not primitive or is_primitive(points))


@pytest.mark.parametrize("field", [QQ, F101], ids=["QQ", "F_101"])
@pytest.mark.parametrize("mode", ["w", "w_star"])
def test_enumerate_sum_matches_the_definitions(field, mode):
    # Starts and finishes in -2..2, the start below the finish included; a
    # standard walk is one with no point below its last, which is the finish.
    w = rand_weights(random.Random(31), 2, field)
    heights = range(-2, 3)
    for start in heights:
        walks = [(p, weight(w, p, mode)) for p in _walks_by_definition(start, 5)]
        for finish, walk_filter in product(heights, WALK_FILTERS):
            want = [cm.zeros(field, 2) for _ in range(6)]
            for points, wt in walks:
                if points[-1] == finish and _in_class(points, walk_filter):
                    n = len(points) - 1
                    want[n] = cm.add(field, want[n], wt)
            for length in range(6):
                got = enumerate_sum(w, length, start, finish, walk_filter, mode)
                assert got.coeffs == tuple(want[: length + 1]), (start, finish, walk_filter, length)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    s=st.integers(1, 4),
    prime=st.booleans(),
    special=st.one_of(st.none(), st.sampled_from(["zero_a", "zero_c", "zero_d", "b_is_d"])),
    length=st.integers(0, 9),
)
# The largest sizes the cost bounds admit, which the search seldom draws.
@example(seed=1, s=4, prime=True, special="zero_a", length=7)
@example(seed=2, s=3, prime=False, special="zero_c", length=7)
@example(seed=3, s=2, prime=True, special="zero_d", length=9)
@example(seed=4, s=4, prime=False, special="b_is_d", length=6)
def test_class_sums_match_individual_enumerations(seed, s, prime, special, length):
    # Each enumeration costs about s^3 3^length products, several times
    # dearer over Q: keep an example within the cost of s = 2 at length 9
    # over F_101, and of s = 3 at length 7 over Q.
    assume(s**3 * 3**length <= (8 * 3**9 if prime else 27 * 3**7))
    w = rand_weights(random.Random(seed), s, F101 if prime else QQ, special)
    sums = class_sums(w, length)
    assert sums.m0 == enumerate_sum(w, length, 0, 0, "all")
    assert sums.m1 == enumerate_sum(w, length, 1, 0, "all")
    assert sums.mm1 == enumerate_sum(w, length, -1, 0, "all")
    assert sums.gw == enumerate_sum(w, length, 0, 0, "standard")
    assert sums.gwstar == enumerate_sum(w, length, 0, 0, "standard", mode="w_star")
    assert sums.hw == enumerate_sum(w, length, 0, 0, "primitive_standard")
    assert sums.hwstar == enumerate_sum(
        w, length, 0, 0, "primitive_standard", mode="w_star"
    )
    assert sums.j0 == enumerate_sum(w, length, 0, 0, "primitive")
    # Every endpoint of every length is present: callers index by_finish
    # directly, so a dropped height must fail here, not read as zero.
    assert [sorted(row) for row in sums.by_finish] == [
        list(range(-n, n + 1)) for n in range(length + 1)
    ]
    zero = cm.zeros(w.field, w.s)
    for k in range(-length, length + 1):
        by_length = [sums.by_finish[n].get(k, zero) for n in range(length + 1)]
        assert by_length == list(enumerate_sum(w, length, 0, k, "all").coeffs)


def test_each_caller_makes_only_the_class_passes_it_reads(monkeypatch):
    import bandedgf.walks as walks

    passes = []
    real = walks._class_pass

    def counted(*args, **kwargs):
        passes.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(walks, "_class_pass", counted)
    spec = example_spec("ex4.2")
    w = block_reduce(spec)
    # cross_check reads gw, gwstar and the unrestricted sums; the identity
    # suite reads by_finish and j0; the oracle comparison reads every class.
    for run, want in (
        (lambda: cross_check(spec, 9), 3),
        (lambda: run_identity_suite(w, order=9, enum_length=6), 2),
        (lambda: oracle_comparison(w, 6), 6),
    ):
        passes.clear()
        run()
        assert len(passes) == want


def test_class_sums_are_assignable():
    sums = class_sums(scalar_weights(1, 1, 1, 1), 3)
    for name in ("m0", "m1", "mm1", "gw", "gwstar", "hw", "hwstar", "j0"):
        replacement = sums.m0.truncate(2)
        setattr(sums, name, replacement)
        assert getattr(sums, name) is replacement


def dense_u_table_rows(w, order):
    """The standard-walk table by the dense recurrence, block by block:
    u_1 <- D u_1 + C u_2 and u_k <- A u_{k-1} + B u_k + C u_{k+1}."""
    field, s = w.field, w.s
    zero = cm.zeros(field, s)
    rows = [(cm.identity(field, s),)]
    for _ in range(order):
        prev = rows[-1] + (zero, zero)  # prev[k - 1] is u_k
        nxt = [cm.add(field, cm.mul(field, w.d, prev[0]), cm.mul(field, w.c, prev[1]))]
        for k in range(2, len(prev)):
            acc = cm.mul(field, w.a, prev[k - 2])
            acc = cm.add(field, acc, cm.mul(field, w.b, prev[k - 1]))
            acc = cm.add(field, acc, cm.mul(field, w.c, prev[k]))
            nxt.append(acc)
        rows.append(tuple(nxt))
    return tuple(rows)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    s=st.integers(1, 4),
    field=st.sampled_from([QQ, PrimeField(2), F101]),
    special=st.one_of(st.none(), st.sampled_from(["zero_a", "zero_c", "zero_d", "b_is_d"])),
    order=st.integers(0, 15),
)
@example(seed=4, s=4, field=QQ, special="zero_a", order=15)
@example(seed=5, s=3, field=PrimeField(2), special="zero_c", order=15)
def test_u_table_matches_the_dense_recurrence(seed, s, field, special, order):
    w = rand_weights(random.Random(seed), s, field, special)
    rows = u_table(w, order).rows
    want = dense_u_table_rows(w, order)
    assert rows == want
    # The repr tells an int from an equal Fraction: entries stay canonical.
    assert repr(rows) == repr(want)


def test_u_table_refuses_a_negative_order(weight_factory):
    with pytest.raises(ValueError):
        u_table(weight_factory(2, seed=14), -3)


def test_u_table_base_row(weight_factory):
    w = weight_factory(2, seed=14)
    table = u_table(w, 5)
    assert table.value(1, 0) == cm.identity(F101, 2)
    assert table.value(2, 0) == cm.zeros(F101, 2)


def test_u_table_first_step():
    w = scalar_weights(1, 0, 1, 1)
    table = u_table(w, 4)
    assert table.value(1, 1) == ((1,),)
    assert table.value(2, 1) == ((1,),)
    assert table.value(3, 1) == ((0,),)


def test_u_table_vanishes_beyond_reach(weight_factory):
    w = weight_factory(2, seed=15)
    table = u_table(w, 8)
    for n in range(9):
        assert table.value(n + 2, n) == cm.zeros(F101, 2)


def test_u_table_first_column_matches_enumeration(weight_factory):
    for s, seed in ((1, 21), (2, 22)):
        w = weight_factory(s, seed=seed)
        table = u_table(w, 10)
        enum = enumerate_sum(w, 10, 0, 0, "standard", mode="w_star")
        assert table.series(1) == enum
        # Walks from 2 down to 0, starred weights.
        enum2 = enumerate_sum(w, 10, 2, 0, "standard", mode="w_star")
        assert table.series(3) == enum2


def test_decomposition_identities_via_enumeration(weight_factory):
    # (1 - H) G = I and H = Bz + C G A z^2, both sides from enumeration only.
    for s, seed in ((1, 31), (2, 32)):
        w = weight_factory(s, seed=seed)
        order = 8
        g = enumerate_sum(w, order, 0, 0, "standard")
        h = enumerate_sum(w, order, 0, 0, "primitive_standard")
        ident = MatrixSeries.identity(F101, s, order)
        assert (ident - h) * g == ident
        rebuilt = (
            MatrixSeries.from_const(F101, w.b, order).shift(1)
            + g.lmul_const(w.c).rmul_const(w.a).shift(2)
        )
        assert rebuilt == h


def test_enumerated_identities_to_length_ten(weight_factory):
    # All quantities from the walk-sum oracle, identities checked to length
    # 10: geometric inversion by the primitive parts, the primitive
    # decomposition of H, and the central analogue with the loop sum.
    w = weight_factory(2, seed=33)
    order = 10
    sums = class_sums(w, order)
    ident = MatrixSeries.identity(F101, 2, order)
    assert (ident - sums.hw) * sums.gw == ident
    assert (ident - sums.hwstar) * sums.gwstar == ident
    rebuilt_h = (
        MatrixSeries.from_const(F101, w.b, order).shift(1)
        + sums.gw.lmul_const(w.c).rmul_const(w.a).shift(2)
    )
    assert rebuilt_h == sums.hw
    assert sums.m0 * (ident - sums.j0) == ident
