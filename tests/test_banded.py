import ast
import inspect
import json
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandedgf import banded, engine, fixtures
from bandedgf.banded import (
    BandedSpec,
    BlockWeights,
    block_reduce,
    checked_block_size,
    choose_block_size,
    from_block_weights,
    verify_block_size,
)
from bandedgf.errors import InvalidBlockSizeError, ResourceLimitError, SpecFormatError
from bandedgf.fields import PrimeField, QQ

from helpers import (
    reference_block_reduce,
    reference_verify_block_size,
    validate_reduction,
)


def ones(s):
    return [[1] * s for _ in range(s)]


def test_entry_band_and_exceptions():
    spec = fixtures.ex41_spec()
    assert spec.entry(1, 4) == 1       # third superdiagonal, odd row
    assert spec.entry(2, 5) == 0       # even row: band value is 0
    assert spec.entry(10**6, 10**6 + 1) == 1
    assert spec.entry(3, 7) == 0


def test_entry_exceptional_override_wins():
    spec = BandedSpec(QQ, 1, {0: [1]}, [(1, 1, 0), (2, 3, 7)])
    assert spec.entry(1, 1) == 0       # band value deleted at the corner
    assert spec.entry(2, 2) == 1
    assert spec.entry(2, 3) == 7       # off-band override


def test_entry_zero_beyond_bandwidth_on_corpus():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        b = spec.bandwidth
        for i in range(1, 12):
            for j in range(1, 12):
                if abs(i - j) > b:
                    assert spec.entry(i, j) == 0


def test_choose_block_size_defaults():
    # The conservative default covers the bandwidth, rounded to the period.
    assert choose_block_size(fixtures.ex41_spec()) == 4
    assert choose_block_size(fixtures.ex42_spec()) == 4
    assert choose_block_size(fixtures.ex43_spec()) == 3
    assert choose_block_size(fixtures.ex512_spec()) == 1


def test_user_supplied_smaller_block_size_verifies():
    # Block size 2 is below the bandwidth yet satisfies both corner
    # conditions for this spec, so it must be accepted.
    verify_block_size(fixtures.ex41_spec(), 2)


def test_bad_block_size_is_rejected_with_position():
    with pytest.raises(InvalidBlockSizeError) as info:
        block_reduce(fixtures.ex42_spec(), 2)
    assert info.value.position == (2, 5)


@st.composite
def _specs(draw):
    """Specs over Q (true fractions) or F_7: period 1..4, bands at offsets
    -6..6 with zero values frequent (whole bands may be zero), and 0-3
    overrides in the 8-by-8 corner, which may be zero (deleting a band entry)
    or lie off every band."""
    period = draw(st.integers(1, 4))
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    if field == QQ:
        scalar = st.sampled_from([0, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    else:
        scalar = st.sampled_from([0, 0, 1]) | st.integers(0, 6)
    values = st.lists(scalar, min_size=period, max_size=period)
    offsets = draw(st.sets(st.integers(-6, 6), max_size=5))
    bands = {r: draw(values) for r in sorted(offsets)}
    index = st.integers(1, 8)
    overrides = draw(st.lists(st.tuples(index, index, scalar), max_size=3))
    return BandedSpec(field, period, bands, overrides)


def _outcome(check, spec, s):
    """None when ``check`` passes, else the message and position it raised."""
    try:
        check(spec, s)
    except InvalidBlockSizeError as exc:
        return str(exc), exc.position
    return None


@settings(max_examples=400, deadline=None)
@given(spec=_specs(), s=st.integers(1, 9))
def test_verify_block_size_matches_the_full_window_scan(spec, s):
    # Same pass or raise, message and first failing position as the scan
    # that reads every entry of the window.
    assert _outcome(verify_block_size, spec, s) == _outcome(
        reference_verify_block_size, spec, s
    )


@settings(max_examples=200, deadline=None)
@given(spec=_specs())
def test_choose_block_size_is_the_least_verified_multiple_of_the_period(spec):
    p = spec.period
    floor = max(spec.bandwidth, spec.exceptional_bound, 1)
    s = choose_block_size(spec)
    assert s % p == 0 and s >= floor
    assert _outcome(reference_verify_block_size, spec, s) is None
    first = -(-floor // p) * p
    for smaller in range(first, s, p):
        assert _outcome(reference_verify_block_size, spec, smaller) is not None


class _CountingSpec(BandedSpec):
    """A spec that counts the entries and the rows read from it."""

    reads = 0
    rows = 0

    def entry(self, i, j):
        self.reads += 1
        return super().entry(i, j)

    def row(self, i):
        self.rows += 1
        return super().row(i)


def _counting_ex41():
    base = fixtures.ex41_spec()
    return _CountingSpec(base.field, base.period, base.bands, base.exceptional)


def test_verify_block_size_builds_each_window_row_once():
    # ex4.1 at s = 300: the window has 1205 rows, and (2) compares row i with
    # row i + s, so the check builds rows 1..1505, each once, and reads no
    # entry.  The scan over the whole window read 2,814,350 entries here.
    spec = _counting_ex41()
    s = 300
    verify_block_size(spec, s)
    assert banded._window(spec, s) == 1205
    assert (spec.rows, spec.reads) == (1205 + s, 0)


class _CountingIndex(dict):
    """A per-row override index that counts the overrides it hands out."""

    reads = 0

    def get(self, i, default=None):
        hit = super().get(i, default)
        self.reads += len(hit or ())
        return hit


def test_the_check_reads_each_override_once_per_row_built():
    # k diagonal overrides v_{i,i} = 2 on a tridiagonal spec: the chosen
    # s = 2k - 1 builds w + s rows, each override comes from the per-row index
    # once, with its row, and no row scans the other k - 1.
    for k in (50, 400):
        ones = {-1: [1], 0: [1], 1: [1]}
        spec = _CountingSpec(QQ, 1, ones, [(i, i, 2) for i in range(1, k + 1)])
        spec._row_overrides = index = _CountingIndex(spec._row_overrides)
        s = choose_block_size(spec)
        verify_block_size(spec, s)
        assert s == 2 * k - 1
        assert (spec.rows, index.reads, spec.reads) == (banded._window(spec, s) + s, k, 0)


def _names(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_the_row_readers_name_neither_entry_nor_support():
    # The check, the cut and the direct route read V only through rows;
    # entry stays the pointwise reader of the reference scans.
    for reader in (verify_block_size, block_reduce, engine.corner_first_columns):
        assert not _names(reader) & {"entry", "support"}
    assert not hasattr(BandedSpec, "support")


def test_row_reads_the_per_row_index_not_the_overrides():
    assert "exceptional" not in _names(BandedSpec.row)


@settings(max_examples=200, deadline=None)
@given(spec=_specs(), s=st.integers(1, 9))
@example(  # a repeated cell, zero overrides, a zero band value, an override off every band
    spec=BandedSpec(QQ, 2, {0: [2, 2], 1: [1, 0]},
                    [(1, 1, 3), (1, 1, 0), (3, 4, 0), (2, 3, 4), (2, 5, 7)]),
    s=2,
)
def test_row_is_the_nonzero_entries(spec, s):
    reach = spec.bandwidth + spec.exceptional_bound
    for i in range(1, banded._window(spec, s) + 1):
        nonzero = {j: v for j in range(1, i + reach + 1) if (v := spec.entry(i, j))}
        assert spec.row(i) == nonzero


def _cut(reduce, spec, s):
    """The weights ``reduce`` cuts at block size s, or the message and
    position it raised."""
    try:
        return reduce(spec, s)
    except InvalidBlockSizeError as exc:
        return str(exc), exc.position


@settings(max_examples=300, deadline=None)
@given(spec=_specs(), s=st.integers(1, 9))
def test_block_reduce_matches_the_full_corner_cut(spec, s):
    # At the drawn size (valid or not) and at the chosen one (always valid):
    # equal weights, or the same message and first failing position.
    for size in (s, choose_block_size(spec)):
        assert _cut(block_reduce, spec, size) == _cut(reference_block_reduce, spec, size)


def _tridiagonal_ones(*overrides):
    return BandedSpec(QQ, 1, {-1: [1], 0: [1], 1: [1]}, overrides)


def test_choose_block_size_on_far_overrides():
    # An override that differs from its band value needs s >= i + j - 1; a
    # redundant one, or a zero one off every band, only s >= max(i, j).
    assert choose_block_size(_tridiagonal_ones((600, 600, 2))) == 1199
    assert choose_block_size(_tridiagonal_ones((600, 600, 1))) == 600
    assert choose_block_size(_tridiagonal_ones((600, 610, 0))) == 610


def test_choose_block_size_reads_no_entry_and_runs_no_check(monkeypatch):
    # A search over the multiples of the period from max(bandwidth, m) would
    # run the check 60 times here.
    calls = []
    check = banded.verify_block_size
    monkeypatch.setattr(banded, "verify_block_size", lambda *a: calls.append(a) or check(*a))
    spec = _CountingSpec(QQ, 1, {-1: [1], 0: [1], 1: [1]}, [(60, 60, 2)])
    assert choose_block_size(spec) == 119
    assert (spec.reads, calls) == (0, [])


def test_choose_block_size_names_no_check_and_no_entry():
    # Read from the source, so the search cannot come back: both block sizes
    # come from a rule over the overrides, and from_block_weights passes its
    # own to the constructor instead of setting it afterwards.
    for rule in (choose_block_size, from_block_weights):
        tree = ast.parse(inspect.getsource(rule))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert not names & {"verify_block_size", "entry"}
        stores = [n for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)]
        assert stores == []


def test_block_reduce_builds_2s_rows_past_the_check():
    # ex4.1 at s = 300: the cut fills the corner from rows 1..2s, past the
    # check's 1505, and reads no entry.  A cut of the whole 2s-by-2s corner
    # would read 360,000 entries here.
    spec = _counting_ex41()
    s = 300
    block_reduce(spec, s)
    assert (spec.rows, spec.reads) == (1505 + 2 * s, 0)


def test_row_is_the_bands_then_the_row_overrides():
    spec = BandedSpec(QQ, 2, {-2: [1, 0], 0: [0, 0], 3: [5, 1]}, [(2, 7, 0), (3, 1, 4)])
    assert spec.row(1) == {4: 5}
    assert spec.row(2) == {5: 1}        # the zero override off every band adds nothing
    assert spec.row(3) == {1: 4, 6: 5}  # the override wins over the band value 1
    for i in range(1, 8):
        for j in set(range(1, 20)) - spec.row(i).keys():
            assert spec.entry(i, j) == 0


@pytest.mark.parametrize("spec", [
    _CountingSpec(QQ, 1, {10**6: [1]}),                 # a 70-byte spec with s = 10^6
    _CountingSpec(QQ, 1, {-40_000: [1]}),               # 240,001 rows times 2 cells
    _CountingSpec(QQ, 1, {0: [1]}, [(10**6, 1, 1)]),    # one far override
    _CountingSpec(QQ, 1, {0: [1]}, block_size=10**6),   # a far declared block size
], ids=["band", "nearer-band", "override", "declared"])
def test_a_far_spec_is_refused_before_any_row_is_built(spec):
    past = f"past the ceiling of {banded.CHECK_CEILING} cells"
    for check in (lambda: checked_block_size(spec, None), lambda: block_reduce(spec),
                  lambda: block_reduce(spec, 10**6)):
        with pytest.raises(ResourceLimitError, match=past):
            check()
    assert (spec.rows, spec.reads) == (0, 0)


def test_block_reduce_refuses_past_the_cut_ceiling_after_the_check():
    # ex4.1 at s = 514 passes the check, but its blocks would hold 4s^2
    # scalars: the cut builds no row of its own.
    spec = _counting_ex41()
    s = banded.CUT_CEILING + 2
    checked_block_size(spec, s)
    checked = spec.rows
    with pytest.raises(ResourceLimitError, match=f"past the ceiling {banded.CUT_CEILING}"):
        block_reduce(spec, s)
    assert spec.rows == 2 * checked


def test_block_reduce_corner_blocks():
    w = block_reduce(fixtures.ex41_spec(), 2)
    assert w.d == ((1, 1), (1, 1))
    assert w.b == ((1, 1), (1, 1))
    assert w.a == ((0, 1), (0, 0))
    assert w.c == ((0, 1), (1, 0))


def test_block_reduce_third_example():
    w = block_reduce(fixtures.ex43_spec(), 3)
    assert w.a == ((0, 0, 1), (0, 1, 0), (0, 0, 0))
    assert w.b == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert w.c == ((0, 0, 0), (0, 1, 0), (1, 0, 0))
    assert w.d == w.b


def test_block_reduce_corner_loop_example():
    w = block_reduce(fixtures.ex512_spec(), 1)
    assert (w.a, w.b, w.c, w.d) == (((1,),), ((0,),), ((1,),), ((1,),))


def test_validate_reduction_round_trip():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        w = block_reduce(spec)
        assert validate_reduction(spec, w, 6 * w.s)


def test_validate_reduction_window_floor():
    spec = fixtures.ex41_spec()
    w = block_reduce(spec, 2)
    assert validate_reduction(spec, w, 2 * w.s)
    with pytest.raises(ValueError):
        validate_reduction(spec, w, 2 * w.s - 1)


def test_validate_reduction_catches_wrong_cut():
    # Cutting blocks of size 2 out of the ex4.2 corner without verification
    # misses the band entry at (2, 5); the validator reports exactly there.
    spec = fixtures.ex42_spec()
    cut = lambda r0, c0: [
        [spec.entry(i, j) for j in range(c0, c0 + 2)] for i in range(r0, r0 + 2)
    ]
    w = BlockWeights(QQ, 2, cut(3, 1), cut(3, 3), cut(1, 3), cut(1, 1))
    report = validate_reduction(spec, w, 12)
    assert not report
    assert report.mismatch[:2] == (2, 5)


def test_shift_condition_on_window():
    for name in fixtures.EXAMPLE_NAMES:
        spec = fixtures.example_spec(name)
        s = spec.block_size
        for i in range(1, 4 * s + 1):
            for j in range(1, 4 * s + 1):
                if i + j >= s + 2:
                    assert spec.entry(i + s, j + s) == spec.entry(i, j)


@st.composite
def _anti_triangle_weights(draw):
    """Block weights (s = 1..5) over Q, F_2 or F_101 whose corner block D
    differs from the repeating band B only inside the i + j <= s + 1
    anti-triangle (1-based)."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(101)]))
    s = draw(st.integers(1, 5))
    if field is QQ:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        value = st.integers(0, field.p - 1)
    mat = st.lists(st.lists(value, min_size=s, max_size=s), min_size=s, max_size=s)
    a, b, c, corner = draw(mat), draw(mat), draw(mat), draw(mat)
    d = [[corner[i][j] if i + j <= s - 1 else b[i][j] for j in range(s)] for i in range(s)]
    return BlockWeights(field, s, a, b, c, d)


@settings(max_examples=150, deadline=None)
@given(w=_anti_triangle_weights())
def test_from_block_weights_round_trip(w):
    # D differs from B only inside the anti-triangle, so w round-trips at block size s.
    spec = from_block_weights(w)
    assert spec.block_size == w.s
    assert block_reduce(spec, w.s) == w
    assert validate_reduction(spec, w, 6 * w.s)


@st.composite
def _raw_block_weights(draw):
    """Block weights (s = 1..4) as written, not reduced: over F_p ints from -p
    to 3p, over Q Fractions, integral ones included; D repeats B but for a
    few cells, some of them only spelled differently (b + p, or the int b)."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(101)]))
    s = draw(st.integers(1, 4))
    if field is QQ:
        value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
        respell = int
    else:
        value = st.integers(-field.p, 3 * field.p)
        respell = field.p.__add__
    mat = st.lists(st.lists(value, min_size=s, max_size=s), min_size=s, max_size=s)
    a, b, c = draw(mat), draw(mat), draw(mat)
    d = [row[:] for row in b]
    cells = st.tuples(st.integers(0, s - 1), st.integers(0, s - 1))
    for i, j in draw(st.sets(cells, min_size=1, max_size=3)):
        d[i][j] = draw(value) if draw(st.booleans()) else respell(b[i][j])
    return BlockWeights(field, s, a, b, c, d)


def _accepts(spec, s):
    try:
        verify_block_size(spec, s)
    except InvalidBlockSizeError:
        return False
    return True


@settings(max_examples=400, deadline=None)
@given(w=_raw_block_weights())
def test_from_block_weights_sets_the_block_size_the_check_accepts(w):
    spec = from_block_weights(w)
    assert spec.block_size in (w.s, None)
    assert (spec.block_size == w.s) == _accepts(spec, w.s)


def test_block_weights_are_canonical():
    f2 = PrimeField(2)
    assert BlockWeights(f2, 1, [[2]], [[0]], [[3]], [[-1]]) == BlockWeights(
        f2, 1, [[0]], [[0]], [[1]], [[1]])
    w = BlockWeights(QQ, 1, [[Fraction(2, 1)]], [[1]], [[1]], [[1]])
    assert type(w.a[0][0]) is int
    # D = 2 is B = 0 in F_2: no override, block size 1, and the cut gives w back.
    w = BlockWeights(f2, 1, [[1]], [[0]], [[1]], [[2]])
    spec = from_block_weights(w)
    assert (spec.exceptional, spec.block_size) == ({}, 1)
    assert block_reduce(spec, 1) == w


def test_from_block_weights_arbitrary_corner():
    # A corner block clashing with the band pattern cannot verify at block
    # size s, but the rebuilt entries still match and a doubled block works.
    rng = random.Random(10)
    f = PrimeField(101)
    for s in (2, 3):
        def mat():
            return [[rng.randrange(101) for _ in range(s)] for _ in range(s)]
        b = mat()
        d = [[(b[i][j] + 1) % 101 for j in range(s)] for i in range(s)]
        w = BlockWeights(f, s, mat(), b, mat(), d)
        spec = from_block_weights(w)
        assert spec.block_size is None
        assert validate_reduction(spec, w, 6 * s)
        with pytest.raises(InvalidBlockSizeError):
            verify_block_size(spec, s)
        assert choose_block_size(spec) == 2 * s


def _round_trip(spec):
    """The spec written as a JSON text, parsed and decoded again."""
    text = json.dumps(spec.to_json_doc(), sort_keys=True)
    return BandedSpec.from_json_doc(json.loads(text)), text


def test_json_round_trip_bit_exact():
    spec = BandedSpec(
        QQ,
        2,
        {0: [QQ.parse("1/3"), 2], 3: [QQ.parse("-7/2"), 0]},
        [(1, 2, QQ.parse("22/7"))],
        block_size=4,
    )
    again, text = _round_trip(spec)
    assert json.dumps(again.to_json_doc(), sort_keys=True) == text
    assert again.entry(1, 1) == QQ.parse("1/3")
    assert again.entry(1, 2) == QQ.parse("22/7")
    assert again.entry(3, 6) == QQ.parse("-7/2")


def test_json_rejects_malformed_documents():
    with pytest.raises(SpecFormatError):
        BandedSpec.from_json_doc({"field": "rational", "period": 1})
    with pytest.raises(SpecFormatError):
        BandedSpec.from_json_doc(
            {"field": "rational", "period": 2, "bands": [{"offset": 0, "values": [1]}]}
        )
    with pytest.raises(SpecFormatError):
        BandedSpec.from_json_doc(
            {"field": {"prime": 9}, "period": 1, "bands": [{"offset": 0, "values": [1]}]}
        )


@pytest.mark.parametrize(
    "doc",
    [
        {"field": "rational", "period": 1, "bands": [{"offset": 0, "values": 5}]},
        {"field": "rational", "period": 2, "bands": [{"offset": 0, "values": "11"}]},
        {"field": "rational", "period": 1, "bands": {"offset": 0, "values": [1]}},
        {"field": "rational", "period": 1, "bands": [], "exceptional": 1},
    ],
)
def test_json_rejects_wrongly_typed_members(doc):
    with pytest.raises(SpecFormatError):
        BandedSpec.from_json_doc(doc)


def test_prime_field_spec_round_trip():
    f = PrimeField(13)
    spec = BandedSpec(f, 1, {0: [5], 1: [12]}, [(1, 1, 3)])
    again, _ = _round_trip(spec)
    assert again.field == f
    assert again.entry(1, 1) == 3
    assert again.entry(4, 5) == 12
