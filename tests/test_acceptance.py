"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` (or ``-rP``) to see the
per-criterion lines.  Every tolerance is zero: the arithmetic is exact, so
all comparisons are exact equality through the stated order.
"""

import json
import random
import time

from bandedgf import cli, fixtures
from bandedgf.annihilator import AnnihilatorPoly, reconstruct, verify
from bandedgf.banded import BlockWeights, block_reduce
from bandedgf.engine import (
    cross_check,
    direct_route,
    fixed_point_route,
    laurent_route,
    symbol_determinant,
)
from bandedgf.errors import RouteMismatchError
from bandedgf.fields import PrimeField, QQ
from bandedgf.identities import oracle_comparison, run_identity_suite
from bandedgf.section5 import affine_pipeline
from bandedgf.series import Series

from helpers import enumerate_sum

F101 = PrimeField(101)
SEED = 20260809


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name}{suffix}"


def random_weights(rng, s):
    def mat():
        return [[rng.randrange(101) for _ in range(s)] for _ in range(s)]
    return BlockWeights(F101, s, mat(), mat(), mat(), mat())


def test_criterion_1_first_example_three_routes_and_cubic():
    spec = fixtures.ex41_spec()
    t0 = time.perf_counter()
    direct = direct_route(spec, 60)
    w = block_reduce(spec, 2)
    fp = fixed_point_route(w, 60)
    lr = laurent_route(w, 60)
    routes_agree = direct.coeffs == fp.gv.coeffs == lr.gv.coeffs
    residual = fixtures.ex41_annihilator().evaluate(fp.gv)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "first-example-routes-and-cubic",
        routes_agree and residual.is_zero() and elapsed < 5.0,
        f"routes_agree={routes_agree}, residual_zero={residual.is_zero()}, "
        f"elapsed={elapsed:.2f}s < 5s",
    )


def test_criterion_2_first_example_reconstruction_via_cli(tmp_path, capsys):
    out_path = tmp_path / "annihilate.json"
    code = cli.main([
        "annihilate", "--example", "ex4.1", "--order", "60",
        "--degx", "3", "--degz", "5", "--out", str(out_path),
    ])
    doc = json.loads(out_path.read_text())
    found = AnnihilatorPoly.from_json_doc(doc["polynomial"], QQ)
    ok = code == 0 and doc["status"] == "pass" and found == fixtures.ex41_annihilator()
    report(2, "first-example-cli-reconstruction", ok, f"exit={code}")


def test_criterion_3_second_example_printed_formula():
    # The printed source cubic for this example: x^3 coefficient
    # z^2 (z-1)^3 (3z^2 + 3z - 2) and companions.  The three routes agree
    # exactly (first clause), but the printed cubic does not annihilate the
    # series this matrix actually generates, and reconstruction at (3, 7)
    # finds a lower-degree annihilator instead; see the verified fixture and
    # the project notes.  This test states the criterion as written.
    printed = AnnihilatorPoly(QQ, [
        [-1, 6, -11, 4, 4],
        [2, -13, 31, -26, -5, 10],
        [-1, 7, -22, 33, -14, -12, 9],
        [0, 0, 2, -9, 12, -2, -6, 3],
    ])
    spec = fixtures.ex42_spec()
    direct = direct_route(spec, 60)
    w = block_reduce(spec, 4)
    fp = fixed_point_route(w, 60)
    lr = laurent_route(w, 60)
    routes_agree = direct.coeffs == fp.gv.coeffs == lr.gv.coeffs
    residual = printed.evaluate(fp.gv)
    found = reconstruct(fp.gv, 3, 7)
    recovers = found == printed
    report(
        3,
        "second-example-printed-cubic",
        routes_agree and residual.is_zero() and recovers,
        f"routes_agree={routes_agree}, "
        f"printed_residual_zero={residual.is_zero()} "
        f"(first nonzero at z^{residual.valuation()}), "
        f"reconstruction_recovers_printed={recovers} "
        f"(found degrees ({found.dx},{found.dz}))",
    )


def test_criterion_4_third_example_closed_form_and_symbol():
    spec = fixtures.ex43_spec()
    w = block_reduce(spec, 3)
    gv = fixed_point_route(w, 40).gv
    form = fixtures.ex43_closed_form()
    closed_ok = gv == form.expand(40)
    det_ok = True
    for z0 in fixtures.SAMPLE_POINTS:
        got = symbol_determinant(w, z0)
        want = tuple(
            QQ.reduce(sum(c * z0**k for k, c in enumerate(poly)))
            for poly in fixtures.EX43_SYMBOL_DET
        )
        det_ok = det_ok and got == want
    report(
        4,
        "third-example-closed-form",
        closed_ok and det_ok,
        f"closed_form={closed_ok}, symbol_determinant_on_5_points={det_ok}",
    )


def test_criterion_5_affine_readout_identity():
    spec = fixtures.ex512_spec()
    s_series = affine_pipeline(spec, 1, fixtures.ex512_recursion(), 40)

    def poly(cs):
        return Series.from_ints(QQ, cs, order=40)

    lhs = poly([1, -16]) * poly([1, -4]) * poly([1, -4, 4]) * s_series
    rhs = poly([0, 4, -16, 16]) + poly([0, 2, -12]) * poly([1, 0, -4]).sqrt()
    identity_ok = lhs == rhs
    first_ok = s_series.coeffs[1] == 6 and s_series.coeffs[2] == 116
    report(
        5,
        "affine-readout-square-root-identity",
        identity_ok and first_ok,
        f"identity_mod_z41={identity_ok}, S1=6 and S2=116: {first_ok}",
    )


def test_criterion_6_oracle_equivalence_25_random_configs():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    all_ok = True
    for idx in range(25):
        s = (idx % 3) + 1
        w = random_weights(rng, s)
        rep = oracle_comparison(w, 10)
        all_ok = all_ok and rep.ok
    elapsed = time.perf_counter() - t0
    report(
        6,
        "oracle-equivalence",
        all_ok and elapsed < 60.0,
        f"25 configs over F_101 (seed={SEED}), lengths <= 10, "
        f"elapsed={elapsed:.1f}s < 60s",
    )


def test_criterion_7_identity_suite_corpus_and_random():
    failures = []
    for name in fixtures.EXAMPLE_NAMES:
        w = block_reduce(fixtures.example_spec(name))
        rep = run_identity_suite(w, order=20, enum_length=8)
        if not rep.ok:
            failures.append((name, rep.failures()))
    rng = random.Random(SEED + 7)
    for idx in range(10):
        s = (idx % 3) + 1
        w = random_weights(rng, s)
        rep = run_identity_suite(w, order=20, enum_length=8)
        if not rep.ok:
            failures.append((f"random[{idx}]", rep.failures()))
    report(
        7,
        "identity-suite-order-20",
        not failures,
        f"fixture corpus + 10 random configs (seed={SEED + 7})"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_known_sequences():
    motzkin = BlockWeights(QQ, 1, [[1]], [[1]], [[1]], [[1]])
    enum = enumerate_sum(motzkin, 7, 0, 0, "standard").entry(0, 0)
    engine = fixed_point_route(motzkin, 7).gw.entry(0, 0)
    motzkin_ok = (
        enum.coeffs == engine.coeffs == (1, 1, 2, 4, 9, 21, 51, 127)
    )
    aerated = BlockWeights(QQ, 1, [[1]], [[0]], [[1]], [[1]])
    enum2 = enumerate_sum(aerated, 8, 0, 0, "standard").entry(0, 0)
    engine2 = fixed_point_route(aerated, 8).gw.entry(0, 0)
    aerated_ok = (
        enum2.coeffs == engine2.coeffs == (1, 0, 1, 0, 2, 0, 5, 0, 14)
    )
    report(
        8,
        "known-sequences",
        motzkin_ok and aerated_ok,
        f"motzkin={motzkin_ok}, aerated_catalan={aerated_ok}",
    )


def test_criterion_9_fault_injection(tmp_path, capsys):
    # Every single weight-entry perturbation must break the route agreement.
    spec = fixtures.ex41_spec()
    good = block_reduce(spec, 2)
    missed = []
    for which in "abcd":
        block = getattr(good, which)
        for i in range(2):
            for j in range(2):
                bad = good.replace(which, i, j, block[i][j] + 1)
                try:
                    cross_check(spec, 10, weights=bad)
                    missed.append((which, i, j))
                except RouteMismatchError:
                    pass
    spec5 = fixtures.ex512_spec()
    good5 = block_reduce(spec5, 1)
    for which in "abcd":
        bad = good5.replace(which, 0, 0, getattr(good5, which)[0][0] + 1)
        try:
            cross_check(spec5, 10, weights=bad)
            missed.append((which, "ex5.12"))
        except RouteMismatchError:
            pass

    # Every single polynomial-coefficient perturbation must fail verify, and
    # the CLI must surface it as exit code 1.
    golden = fixtures.ex41_annihilator()
    g = fixed_point_route(good, 60).gv
    poly_missed = []
    for i in range(golden.dx + 1):
        for j in range(golden.dz + 1):
            grid = [list(row) for row in golden.coeffs]
            grid[i][j] = grid[i][j] + 1
            if verify(AnnihilatorPoly(QQ, grid), g):
                poly_missed.append((i, j))
    perturbed = [list(row) for row in golden.coeffs]
    perturbed[0][0] += 1
    poly_path = tmp_path / "perturbed.json"
    poly_path.write_text(json.dumps({"coeffs": perturbed}))
    out_path = tmp_path / "out.json"
    exit_code = cli.main([
        "verify-example", "ex4.1", "--order", "30",
        "--poly", str(poly_path), "--out", str(out_path),
    ])
    report(
        9,
        "fault-injection",
        not missed and not poly_missed and exit_code == 1,
        f"20 weight perturbations caught={not missed}, "
        f"24 polynomial perturbations caught={not poly_missed}, "
        f"cli_exit_code={exit_code}",
    )
