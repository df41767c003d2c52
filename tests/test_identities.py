from bandedgf import fixtures
from bandedgf import matrices as cm
from bandedgf.banded import block_reduce, from_block_weights
from bandedgf.engine import corner_first_columns
from bandedgf.identities import oracle_comparison, run_identity_suite

SUITE_NAMES = {
    "standard_from_unrestricted_sums",
    "starred_route_agreement",
    "primitive_decomposition_inverts",
    "quadratic_residual",
    "floor_weight_shift",
    "starred_table_agreement",
    "walk_sums_match_symbol_powers",
    "symbol_power_step_recursion",
    "primitive_loop_geometric",
    "primitive_loop_enumeration",
    "walk_table_matches_corner_powers",
    "descent_factorization",
    "weighted_ladder",
}


def test_suite_passes_on_fixture_corpus():
    for name in fixtures.EXAMPLE_NAMES:
        weights = block_reduce(fixtures.example_spec(name))
        report = run_identity_suite(weights, order=14, enum_length=6)
        assert report.ok, report.failures()
        assert {c.name for c in report.checks} == SUITE_NAMES


def test_suite_passes_on_random_prime_field_weights(weight_factory):
    for s, seed in ((1, 201), (2, 202), (3, 203)):
        report = run_identity_suite(weight_factory(s, seed=seed), order=12, enum_length=5)
        assert report.ok, report.failures()


def test_suite_catches_an_inconsistent_engine(weight_factory, monkeypatch):
    # Any self-consistent weight set passes, so break one internal component
    # and demand the cross-validation notices: corrupt the walk-sum table.
    import bandedgf.identities as identities
    from bandedgf.walks import u_table as real_u_table

    w = weight_factory(2, seed=204)

    def corrupt_u_table(weights, order):
        table = real_u_table(weights, order)
        rows = [list(row) for row in table.rows]
        tampered = [list(r) for r in rows[2][0]]
        tampered[0][0] = (tampered[0][0] + 1) % 101
        rows[2] = (tuple(tuple(r) for r in tampered),) + tuple(rows[2][1:])
        return type(table)(table.field, table.s, tuple(rows))

    monkeypatch.setattr(identities, "u_table", corrupt_u_table)
    report = run_identity_suite(w, order=8, enum_length=4)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "floor_weight_shift" in failed or "starred_table_agreement" in failed


def test_corner_check_reads_the_table_past_the_column_frontier(monkeypatch):
    # A corner column stops at its frontier; a nonzero table entry below it
    # must still fail the check, as if the column held a zero there.
    import bandedgf.identities as identities
    from bandedgf.walks import u_table as real_u_table

    w = block_reduce(fixtures.ex41_spec())
    order, s = 6, w.s
    bottom = s * (order + 1)  # the last row the table stores for power ``order``
    column = list(corner_first_columns(from_block_weights(w), order))[order]
    assert len(column) < bottom

    def corrupt_u_table(weights, n):
        table = real_u_table(weights, n)
        rows = list(table.rows)
        blocks = [[list(r) for r in block] for block in rows[order]]
        blocks[order][s - 1][0] += 1
        rows[order] = tuple(cm.freeze(block) for block in blocks)
        return type(table)(table.field, table.s, tuple(rows))

    monkeypatch.setattr(identities, "u_table", corrupt_u_table)
    report = run_identity_suite(w, order=order, enum_length=4)
    detail = {c.name: c.detail for c in report.checks}["walk_table_matches_corner_powers"]
    assert detail == f"entry ({bottom},1) of power {order} differs"


def test_report_json_shape(weight_factory):
    report = run_identity_suite(weight_factory(1, seed=205), order=8, enum_length=4)
    doc = report.to_json_doc()
    assert doc["status"] == "pass"
    assert len(doc["identities"]) == len(SUITE_NAMES)


def test_oracle_comparison_matches_engine(weight_factory):
    for s, seed in ((1, 211), (2, 212)):
        report = oracle_comparison(weight_factory(s, seed=seed), 7)
        assert report.ok
        names = {c.name for c in report.checks}
        assert names == {
            "standard_sum",
            "starred_standard_sum",
            "primitive_standard_sum",
            "starred_primitive_standard_sum",
            "central_transition_sum",
            "down_transition_sum",
            "up_transition_sum",
            "primitive_loop_sum",
        }


def test_oracle_comparison_detects_tampered_engine(weight_factory, monkeypatch):
    # Feed the comparison an engine whose standard sum is perturbed while the
    # enumeration stays honest; the report must flag it.
    import bandedgf.identities as identities
    from bandedgf.engine import fixed_point_route as real_fp

    w = weight_factory(2, seed=213)

    def tampered_fp(weights, order):
        bundle = real_fp(weights, order)
        coeffs = [list(map(list, c)) for c in bundle.gw.coeffs]
        coeffs[3][0][0] = (coeffs[3][0][0] + 1) % 101
        bundle.gw = type(bundle.gw)(bundle.gw.field, bundle.gw.s, coeffs)
        return bundle

    monkeypatch.setattr(identities, "fixed_point_route", tampered_fp)
    report = oracle_comparison(w, 5)
    assert not report.ok
    assert any(c.name == "standard_sum" and not c.ok for c in report.checks)
