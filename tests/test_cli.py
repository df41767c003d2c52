import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bandedgf import cli
from bandedgf.errors import RouteMismatchError


IDENTITY_BAND_SPEC = {
    "field": "rational",
    "period": 1,
    "bands": [{"offset": 0, "values": [1]}],
    "exceptional": [],
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_series_identity_band(tmp_path, capsys):
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, out, _ = run_cli(capsys, "series", "--spec", path, "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "1", "1", "1", "1", "1"]


def test_series_output_is_deterministic(tmp_path, capsys):
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    _, first, _ = run_cli(capsys, "series", "--spec", path, "--order", "8")
    _, second, _ = run_cli(capsys, "series", "--spec", path, "--order", "8")
    assert first == second
    assert '"' in first  # exact strings, never floats
    assert "e-" not in first and "." not in first.replace('"..."', "")


def _fresh_process(argv):
    """exit code, stdout and stderr of ``argv`` in a new interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "bandedgf.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_match_fresh_processes(capsys):
    """main keeps one parser for the process; no parsed flag or default
    carries from one call to the next, also after argparse exits on a
    malformed argv."""
    runs = [
        ["series", "--example", "ex4.1", "--order", "nine"],
        ["series", "--example", "ex4.1", "--order", "9"],
        [
            "annihilate", "--example", "ex4.2", "--order", "30", "--degx", "2",
            "--degz", "3", "--guard", "2", "--extra", "5", "--field", "p:101",
        ],
        ["annihilate", "--example", "ex4.1", "--order", "60", "--degx", "3", "--degz", "7"],
    ]
    for argv in runs:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == _fresh_process(argv), argv
    assert cli.build_parser() is cli.build_parser()


def test_series_writes_output_file(tmp_path, capsys):
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "series", "--spec", path, "--order", "4", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert doc["coefficients"] == ["1", "1", "1", "1", "1"]


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "series", "--spec", str(bad), "--order", "4")
    assert code == 2
    assert "input error" in err


def test_missing_spec_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "series", "--spec", str(tmp_path / "none.json"))
    assert code == 2


def test_invalid_block_size_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "series", "--example", "ex4.2", "--order", "4", "--block-size", "2"
    )
    assert code == 2


def test_route_mismatch_maps_to_exit_1(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RouteMismatchError("forced", order=3)

    monkeypatch.setattr(cli, "cross_check", boom)
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, _, err = run_cli(capsys, "series", "--spec", path, "--order", "4")
    assert code == 1
    assert "mismatch" in err


def test_annihilate_on_builtin_example(capsys):
    code, out, _ = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "60",
        "--degx", "3", "--degz", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["polynomial"]["dx"] == 3 and doc["polynomial"]["dz"] == 5


def test_annihilate_insufficient_order_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "20",
        "--degx", "3", "--degz", "5",
    )
    assert code == 2
    assert "input error" in err


def test_annihilate_refuses_a_short_order_before_the_route(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the route ran on an order too short for the bounds")

    monkeypatch.setattr(cli, "direct_route", never)
    code, out, err = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "300",
        "--degx", "18", "--degz", "16",
    )
    assert (code, out) == (2, "")
    assert err == (
        "input error: series order 300 is too small for bounds (18,16); need at least 343\n"
    )


def test_annihilate_none_found_exits_1(tmp_path, capsys):
    # 1/(1-z) admits no relation c1*g + c0 = 0, so degree bounds (1, 0)
    # leave an empty nullspace.
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, out, _ = run_cli(
        capsys, "annihilate", "--spec", path, "--order", "30",
        "--degx", "1", "--degz", "0",
    )
    assert code == 1
    assert json.loads(out) == {
        "command": "annihilate",
        "order": 30,
        "degx": 1,
        "degz": 0,
        "polynomial": None,
        "status": "none-found",
    }


def test_annihilate_extra_zero_verifies_the_reconstruction_series(capsys):
    code, out, _ = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "60",
        "--degx", "3", "--degz", "5", "--extra", "0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass" and doc["verified_to_order"] == 60


def test_annihilate_builds_the_series_once(capsys, monkeypatch):
    calls = []
    real = cli.direct_route

    def counted(spec, order):
        calls.append(order)
        return real(spec, order)

    monkeypatch.setattr(cli, "direct_route", counted)
    code, out, _ = run_cli(
        capsys, "annihilate", "--example", "ex4.2", "--order", "50",
        "--degx", "3", "--degz", "5", "--extra", "12",
    )
    assert code == 0
    assert calls == [62]
    assert json.loads(out)["verified_to_order"] == 62


def test_annihilate_checks_the_block_size_without_cutting_the_blocks(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("annihilate cut the block weights")

    monkeypatch.setattr(cli, "block_reduce", never)
    code, out, _ = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "60",
        "--degx", "3", "--degz", "5",
    )
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out, err = run_cli(
        capsys, "annihilate", "--example", "ex4.1", "--order", "60",
        "--degx", "3", "--degz", "5", "--block-size", "3",
    )
    assert (code, out) == (2, "")
    assert err == "error: shift condition fails at (1,4): v_{4,7} != v_{1,4}\n"


def test_section5_commands_check_the_block_size_without_cutting_the_blocks(
    tmp_path, capsys, monkeypatch
):
    def never(*args):
        raise AssertionError("a Section 5 command cut the block weights")

    monkeypatch.setattr(cli, "block_reduce", never)
    rules = {"weights": [{"residue": 1, "poly": [1]}, {"residue": 2, "poly": [0, 1]}]}
    recursion = {"dimY": 1, "T": [[1]], "l": [1], "y_rule": [rules]}
    for command, flag, doc in (("weighted", "--weights", rules),
                               ("affine", "--recursion", recursion)):
        path = write_spec(tmp_path, doc, f"{command}.json")
        argv = [command, "--example", "ex4.1", flag, path, "--order", "12"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and len(json.loads(out)["coefficients"]) == 13
        code, out, err = run_cli(capsys, *argv, "--block-size", "3")
        assert (code, out) == (2, "")
        assert err == "error: shift condition fails at (1,4): v_{4,7} != v_{1,4}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["annihilate", "--example", "ex4.1", "--order", "60", "--degx", "3",
          "--degz", "5", "--extra", "-1"], "--extra"),
        (["annihilate", "--example", "ex4.1", "--order", "60", "--degx", "3",
          "--degz", "5", "--guard", "-5"], "--guard"),
        (["annihilate", "--example", "ex4.1", "--order", "60", "--degx", "0",
          "--degz", "5"], "--degx"),
        (["annihilate", "--example", "ex4.1", "--order", "60", "--degx", "3",
          "--degz", "-1"], "--degz"),
        (["series", "--example", "ex4.1", "--order", "-3"], "--order"),
        (["annihilate", "--example", "ex4.1", "--order", "-1", "--degx", "3",
          "--degz", "5"], "--order"),
        (["verify-example", "ex4.1", "--order", "-1"], "--order"),
        (["check-identity", "--example", "ex5.12", "--order", "-1"], "--order"),
        (["check-identity", "--example", "ex5.12", "--order", "5",
          "--enum-length", "-1"], "--enum-length"),
        (["oracle", "--example", "ex5.12", "--length", "-1"], "--length"),
        (["series", "--example", "ex4.1", "--order", "4", "--block-size", "-1"],
         "--block-size"),
        (["weighted", "--example", "ex5.12", "--weights", "w.json",
          "--order", "-2"], "--order"),
        (["affine", "--example", "ex5.12", "--recursion", "r.json",
          "--order", "-2"], "--order"),
    ],
)
def test_out_of_range_flags_exit_2(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {flag} must be at least")
    assert err.count("\n") == 1


def test_band_values_not_a_list_exits_2(tmp_path, capsys):
    doc = {"field": "rational", "period": 1, "bands": [{"offset": 0, "values": 5}]}
    path = write_spec(tmp_path, doc)
    code, _, err = run_cli(capsys, "series", "--spec", path, "--order", "4")
    assert code == 2
    assert err.startswith("input error:") and err.count("\n") == 1


def test_duplicate_exceptional_entry_exits_2(tmp_path, capsys):
    # Two records for one cell are refused, as two bands at one offset are;
    # neither value silently wins.
    records = [{"i": 1, "j": 1, "value": 1}, {"i": 1, "j": 1, "value": 2}]
    path = write_spec(tmp_path, dict(IDENTITY_BAND_SPEC, exceptional=records))
    code, out, err = run_cli(capsys, "series", "--spec", path, "--order", "4")
    assert (code, out, err) == (2, "", "input error: duplicate exceptional entry (1,1)\n")


# Strong pseudoprimes to the prime bases 2..37 (psi_12) and 2..41 (psi_13).
PSI12 = 399165290221 * 798330580441
PSI13 = 1287836182261 * 2575672364521


@pytest.mark.parametrize("modulus", [PSI12, PSI13])
def test_unproven_prime_moduli_exit_2(tmp_path, capsys, modulus):
    flag = run_cli(
        capsys, "series", "--example", "ex4.1", "--order", "5", "--field", f"p:{modulus}"
    )
    doc = {**IDENTITY_BAND_SPEC, "field": {"prime": modulus}}
    in_spec = run_cli(capsys, "series", "--spec", write_spec(tmp_path, doc), "--order", "5")
    for code, out, err in (flag, in_spec):
        assert code == 2 and out == ""
        assert err.startswith(f"input error: modulus {modulus} is")
        assert err.count("\n") == 1


def test_prime_modulus_between_the_pseudoprimes_is_accepted(capsys):
    prime = 3317044064679887385961813  # the largest prime below psi_13
    assert PSI12 < prime < PSI13
    code, out, err = run_cli(
        capsys, "series", "--example", "ex4.1", "--order", "5", "--field", f"p:{prime}"
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["cross_check"]["status"] == "pass"


def test_verify_example_pass(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "ex5.12", "--order", "24")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("order", ["0", "1", "2"])
def test_verify_example_passes_at_low_orders(capsys, order):
    code, out, err = run_cli(capsys, "verify-example", "ex5.12", "--order", order)
    assert code == 0 and err == ""
    assert json.loads(out)["status"] == "pass"


def test_verify_example_with_perturbed_polynomial_exits_1(tmp_path, capsys):
    from bandedgf import fixtures

    doc = fixtures.ex41_annihilator().to_json_doc()
    grid = [list(row) for row in doc["coeffs"]]
    grid[0][0] = grid[0][0] + 1
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps({"coeffs": grid}))
    code, out, _ = run_cli(
        capsys, "verify-example", "ex4.1", "--order", "30", "--poly", str(poly_path)
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert any("external_polynomial" in c["name"] for c in failed)


def test_verify_example_with_correct_polynomial_passes(tmp_path, capsys):
    from bandedgf import fixtures

    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps(fixtures.ex41_annihilator().to_json_doc()))
    code, out, _ = run_cli(
        capsys, "verify-example", "ex4.1", "--order", "30", "--poly", str(poly_path)
    )
    assert code == 0


def test_oracle_command(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--example", "ex5.12", "--length", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["length"] == 8


def test_oracle_runs_past_the_enumeration_ceiling(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--example", "ex5.12", "--length", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["length"] == 16


def test_check_identity_enumerates_past_the_ceiling(capsys):
    code, out, _ = run_cli(
        capsys, "check-identity", "--example", "ex5.12", "--order", "16",
        "--enum-length", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["enumeration_length"] == 16


def test_check_identity_command(tmp_path, capsys):
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, out, _ = run_cli(
        capsys, "check-identity", "--spec", path, "--order", "10",
        "--enum-length", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert len(doc["identities"]) == 13


@pytest.mark.parametrize("field", ["p:2", "p:3"])
def test_check_identity_in_characteristic_2_and_3(capsys, field):
    # The binomial weights of the ladder identities are C(k, r) mod p, which
    # exist also where r! vanishes mod p.
    code, out, err = run_cli(
        capsys, "check-identity", "--example", "ex4.1", "--field", field, "--order", "8",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"


def test_weighted_command(tmp_path, capsys):
    spec_path = write_spec(
        tmp_path,
        {
            "field": "rational",
            "period": 1,
            "bands": [{"offset": 1, "values": [1]}, {"offset": -1, "values": [1]}],
            "exceptional": [{"i": 1, "j": 1, "value": 1}],
            "block_size": 1,
        },
    )
    rules_path = tmp_path / "weights.json"
    rules_path.write_text(
        json.dumps({"weights": [{"residue": 1, "initial": [], "poly": [1]}]})
    )
    code, out, _ = run_cli(
        capsys, "weighted", "--spec", spec_path, "--weights", str(rules_path),
        "--order", "6",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["1", "2", "4", "8", "16", "32", "64"]


def test_affine_command(tmp_path, capsys):
    spec_path = write_spec(
        tmp_path,
        {
            "field": "rational",
            "period": 1,
            "bands": [{"offset": 1, "values": [1]}, {"offset": -1, "values": [1]}],
            "exceptional": [{"i": 1, "j": 1, "value": 1}],
            "block_size": 1,
        },
    )
    rec_path = tmp_path / "rec.json"
    rec_path.write_text(json.dumps({
        "dimY": 2,
        "T": [[16, 4], [0, 4]],
        "l": [1, 0],
        "y_rule": [
            {"weights": [{"residue": 1, "initial": [6], "poly": [6, 8]}]},
            {"weights": [{"residue": 1, "initial": [0], "poly": [1]}]},
        ],
    }))
    code, out, _ = run_cli(
        capsys, "affine", "--spec", spec_path, "--recursion", str(rec_path),
        "--order", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"][:3] == ["0", "6", "116"]


@pytest.mark.parametrize(
    "command,flag,what",
    [("weighted", "--weights", "weights"), ("affine", "--recursion", "recursion")],
)
def test_missing_section5_document_exits_2(tmp_path, capsys, command, flag, what):
    code, out, err = run_cli(
        capsys, command, "--example", "ex5.12", "--order", "4",
        flag, str(tmp_path / "none.json"),
    )
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot read {what} file")
    assert err.count("\n") == 1


# One valid document per input flag, with "BIG" where a 5000-digit integer goes.
_DOCUMENT_FLAGS = {
    "spec": (
        ["series", "--order", "4", "--spec"],
        {"field": "rational", "period": 1, "bands": [{"offset": 0, "values": ["BIG"]}]},
    ),
    "polynomial": (
        ["verify-example", "ex4.1", "--order", "10", "--poly"],
        {"coeffs": [[1, "BIG"]]},
    ),
    "weights": (
        ["weighted", "--example", "ex5.12", "--order", "4", "--weights"],
        {"weights": [{"residue": 1, "initial": [], "poly": ["BIG"]}]},
    ),
    "recursion": (
        ["affine", "--example", "ex5.12", "--order", "4", "--recursion"],
        {"dimY": 1, "T": [["BIG"]], "l": [1],
         "y_rule": [{"weights": [{"residue": 1, "poly": [1]}]}]},
    ),
}


def _with_big(doc, digits):
    return json.dumps(doc).replace('"BIG"', digits).encode()


# Each kind of undecodable file, made from the flag's valid document.
_BAD_FILES = {
    "invalid-utf8": lambda doc: b"\xff",
    "deep-nesting": lambda doc: b"[" * 100000,
    "huge-integer": lambda doc: _with_big(doc, "1" * 5000),
    "utf8-bom": lambda doc: b"\xef\xbb\xbf" + _with_big(doc, "1"),
    "not-json": lambda doc: b"not json",
}


@pytest.mark.parametrize("what", sorted(_DOCUMENT_FLAGS))
@pytest.mark.parametrize("kind", sorted(_BAD_FILES))
def test_undecodable_documents_exit_2(tmp_path, capsys, what, kind):
    argv, doc = _DOCUMENT_FLAGS[what]
    path = tmp_path / "doc.json"
    path.write_bytes(_BAD_FILES[kind](doc))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: invalid JSON in {what} file: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("what", sorted(_DOCUMENT_FLAGS))
def test_a_quoted_value_past_the_int_digit_limit_exits_2(tmp_path, capsys, what):
    # JSON decodes the string; Fraction then refuses its 5000 digits.
    argv, doc = _DOCUMENT_FLAGS[what]
    path = tmp_path / "doc.json"
    path.write_bytes(_with_big(doc, '"' + "1" * 5000 + '"'))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: not a rational value: '1111")
    assert err.count("\n") == 1


    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, out, _ = run_cli(
        capsys, "series", "--spec", path, "--order", "4", "--field", "p:13"
    )
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1"] * 5
    code, _, err = run_cli(
        capsys, "series", "--spec", path, "--order", "4", "--field", "p:12"
    )
    assert code == 2


def test_spec_and_example_together_rejected(tmp_path, capsys):
    path = write_spec(tmp_path, IDENTITY_BAND_SPEC)
    code, _, err = run_cli(
        capsys, "series", "--spec", path, "--example", "ex4.1", "--order", "4"
    )
    assert code == 2


# -- malformed documents exit 2 with one line ------------------------------------

WEIGHTS_DOC = {"weights": [{"residue": 1, "initial": [6], "poly": [6, 8]}]}
RECURSION_DOC = {"dimY": 1, "T": [[2]], "l": [1], "y_rule": [WEIGHTS_DOC]}


def _with(doc, key, value):
    return {**doc, key: value}


def _with_rule(key, value):
    return {"weights": [{**WEIGHTS_DOC["weights"][0], key: value}]}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("weighted", _with(WEIGHTS_DOC, "weights", 5)),
        ("weighted", _with_rule("initial", 6)),
        ("weighted", _with_rule("initial", "12")),
        ("weighted", _with_rule("poly", None)),
        ("affine", _with(RECURSION_DOC, "T", 2)),
        ("affine", _with(RECURSION_DOC, "T", [2])),
        ("affine", _with(RECURSION_DOC, "T", ["2"])),
        ("affine", _with(RECURSION_DOC, "l", 1)),
        ("affine", _with(RECURSION_DOC, "dimY", True)),
    ],
    ids=[
        "weights-not-a-list", "initial-not-a-list", "initial-a-string",
        "poly-not-a-list", "T-not-a-list", "T-row-not-a-list", "T-row-a-string",
        "l-not-a-list", "dimY-boolean",
    ],
)
def test_malformed_section5_documents_exit_2(tmp_path, capsys, command, doc):
    spec_path = write_spec(tmp_path, {
        "field": "rational", "period": 1,
        "bands": [{"offset": 1, "values": [1]}, {"offset": -1, "values": [1]}],
        "block_size": 1,
    })
    doc_path = write_spec(tmp_path, doc, name="doc.json")
    flag = "--weights" if command == "weighted" else "--recursion"
    code, out, err = run_cli(
        capsys, command, "--spec", spec_path, flag, doc_path, "--order", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_a_huge_bad_value_gives_one_short_error_line(tmp_path, capsys):
    doc_path = write_spec(tmp_path, {"weights": [list(range(200000))]}, name="doc.json")
    code, out, err = run_cli(
        capsys, "weighted", "--example", "ex5.12", "--weights", doc_path, "--order", "3"
    )
    assert code == 2 and out == ""
    assert err.startswith("input error: bad weight rule record: [0, 1, 2,")
    assert err.count("\n") == 1 and err.endswith("...\n")
    assert len(err) == cli.ERROR_LINE_CAP + len("...\n")


@pytest.mark.parametrize(
    "doc",
    [
        _with(IDENTITY_BAND_SPEC, "period", True),
        _with(IDENTITY_BAND_SPEC, "bands", [{"offset": False, "values": [1]}]),
    ],
    ids=["period-boolean", "offset-boolean"],
)
def test_boolean_spec_integers_exit_2(tmp_path, capsys, doc):
    path = write_spec(tmp_path, doc)
    code, out, err = run_cli(capsys, "series", "--spec", path, "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


def test_verify_example_with_zero_polynomial_exits_2(tmp_path, capsys):
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(json.dumps({"coeffs": [[0, 0], [0, "0/5"]]}))
    code, out, err = run_cli(
        capsys, "verify-example", "ex4.1", "--order", "10", "--poly", str(poly_path)
    )
    assert code == 2 and out == ""
    assert err.startswith("input error:") and err.count("\n") == 1


# -- fuzzed documents through the CLI ---------------------------------------------

_JUNK = st.sampled_from(
    [None, True, False, 0, -1, 1, 2, 1.5, "", "x", "1/2", "1/0", "12", [], [[]],
     [1, "a"], {}, {"a": 1}]
)
_SMALL = st.sampled_from([0, 1, -1, 2, "1/2", "-2/3", "3/4"])


@st.composite
def _documents(draw):
    """A valid spec (block size s = period) with weight rules and a recursion."""
    s = draw(st.integers(1, 2))
    offsets = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=3, unique=True))
    values = st.lists(_SMALL, min_size=s, max_size=s)
    spec = {
        "field": draw(st.sampled_from(["rational", {"prime": 101}])),
        "period": s,
        "bands": [{"offset": r, "values": draw(values)} for r in offsets],
        "exceptional": [{"i": 1, "j": 1, "value": v} for v in draw(st.lists(_SMALL, max_size=1))],
        "block_size": s,
    }
    rule = st.fixed_dictionaries({
        "initial": st.lists(_SMALL, max_size=2), "poly": st.lists(_SMALL, max_size=2),
    })
    rules = {"weights": [{"residue": i, **draw(rule)} for i in range(1, s + 1)]}
    d = draw(st.integers(1, 2))
    square = st.lists(st.lists(_SMALL, min_size=d, max_size=d), min_size=d, max_size=d)
    recursion = {
        "dimY": d, "T": draw(square), "l": draw(st.lists(_SMALL, min_size=d, max_size=d)),
        "y_rule": [rules] * d,
    }
    return [spec, rules, recursion]


def _paths(doc, prefix=()):
    """Every (container, key) location inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutate(draw, doc, junk=_JUNK):
    """Delete or overwrite up to three locations inside a JSON document."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
            if not doc:
                break
        else:
            parent[path[-1]] = json.loads(json.dumps(draw(junk)))
    return doc


@st.composite
def _mutated_documents(draw):
    return _mutate(draw, draw(_documents()))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    docs=_mutated_documents(),
    command=st.sampled_from(["series", "weighted", "affine"]),
    order=st.integers(0, 4),
)
def test_fuzzed_documents_exit_0_or_2(tmp_path, capsys, docs, command, order):
    names = ("spec.json", "weights.json", "recursion.json")
    paths = [write_spec(tmp_path, doc, name=n) for doc, n in zip(docs, names)]
    paths += [write_spec(tmp_path, None, name=n) for n in names[len(docs):]]
    argv = [command, "--spec", paths[0], "--order", str(order)]
    if command == "weighted":
        argv += ["--weights", paths[1]]
    elif command == "affine":
        argv += ["--recursion", paths[2]]
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), err
    if code == 0:
        assert json.loads(out)["order"] == order
    else:
        assert out == "" and err.count("\n") == 1


_POLY_JUNK = _JUNK | st.sampled_from(
    [0.0, -2.5, 1e300, [[1]], [[0, "0/3"]], "[[1]]", {"coeffs": 1}]
)


@st.composite
def _poly_documents(draw):
    """Polynomial documents around a grid of small scalars: ragged rows,
    all-zero grids, a dropped "coeffs", and nested lists, booleans, floats and
    strings put in anywhere, the whole document included."""
    grid = draw(st.lists(st.lists(_SMALL, max_size=4), max_size=4))
    if draw(st.booleans()):
        grid = [[0] * len(row) for row in grid]
    doc = _mutate(draw, {"coeffs": grid, "dx": len(grid) - 1}, _POLY_JUNK)
    if draw(st.integers(0, 9)) == 0:
        doc = draw(_POLY_JUNK)
    return doc


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    doc=_poly_documents(),
    name=st.sampled_from(["ex4.1", "ex4.2", "ex4.3", "ex5.12"]),
    order=st.integers(0, 3),
)
def test_fuzzed_polynomial_documents_exit_0_1_or_2(tmp_path, capsys, doc, name, order):
    path = write_spec(tmp_path, doc, name="poly.json")
    code, out, err = run_cli(
        capsys, "verify-example", name, "--order", str(order), "--poly", path
    )
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == "" and err.startswith("input error:") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["example"] == name


# -- fuzzed flags through the CLI -------------------------------------------------

_FIELD_FLAGS = [None, "rational", "p:2", "p:3", "p:101", "p:4", "p:1", "p:0", "p:-7",
                "p:x", "p:", "junk"]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(
        ["series", "oracle", "check-identity", "annihilate", "verify-example"]
    ),
    name=st.sampled_from(["ex4.1", "ex4.2", "ex4.3", "ex5.12"]),
    field=st.sampled_from(_FIELD_FLAGS),
    block_size=st.sampled_from([None, *range(-1, 9)]),
    order=st.integers(0, 4),
    out=st.sampled_from([None, "missing", "directory", "file"]),
)
def test_fuzzed_flags_exit_0_1_or_2(
    tmp_path, capsys, command, name, field, block_size, order, out
):
    """Every command on every fixture under drawn --field, --block-size,
    --order/--length and --out values: exit 0 or 1 with a JSON document, or
    2 with one stderr line, never a traceback."""
    target = {
        "missing": tmp_path / "missing" / "out.json",
        "directory": tmp_path,
        "file": tmp_path / "out.json",
    }.get(out)
    if out == "file" and target.exists():
        target.unlink()
    if command == "verify-example":
        argv = [command, name, "--order", str(order)]
    else:
        argv = [command, "--example", name]
        argv += ["--length" if command == "oracle" else "--order", str(order)]
        if field is not None:
            argv += ["--field", field]
        if block_size is not None:
            argv += ["--block-size", str(block_size)]
        if command == "annihilate":
            argv += ["--degx", "1", "--degz", "1", "--guard", "0", "--extra", "2"]
    if target is not None:
        argv += ["--out", str(target)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert stdout == "" and err.count("\n") == 1, err
        return
    assert err == ""
    text = target.read_text() if out == "file" else stdout
    assert out != "file" or stdout == ""
    assert json.loads(text)["command"] == command
