"""Batch command-line front end.

Every command reads a JSON matrix spec (``--spec PATH`` or a built-in
``--example NAME``), runs the requested computation, and writes one JSON
document to stdout or ``--out``.  Output is deterministic: keys are sorted
and every scalar is exact (integers or "num/den" strings, never floats).

Every input file (spec, polynomial, weights, recursion) is read by
:func:`_read_document`, and the library decodes only the parsed document.

Exit codes: 0 success, 1 a mathematical check failed (routes disagree,
residual nonzero, identity broken), 2 bad input (an unreadable or undecodable
file, malformed JSON, invalid document, insufficient order), always with one
line on stderr, cut after ``ERROR_LINE_CAP`` characters.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import fixtures
from .annihilator import DEFAULT_GUARD, AnnihilatorPoly, certify, require_order
from .banded import BandedSpec, BlockWeights, block_reduce, checked_block_size, clear_spec
from .engine import cross_check, direct_route
from .errors import (
    BandedGFError,
    InsufficientPrecisionError,
    RouteMismatchError,
    SpecFormatError,
)
from .fields import PrimeField, QQ, field_to_json
from .identities import DEFAULT_ENUM_LENGTH, oracle_comparison, run_identity_suite
from .section5 import (
    affine_pipeline,
    recursion_from_json_doc,
    weight_rules_from_json_doc,
    weighted_series,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
ERROR_LINE_CAP = 300  # error messages quote bad values, which may be whole files


def _parse_field_flag(text):
    if text == "rational":
        return QQ
    if text.startswith("p:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise SpecFormatError(f"bad --field value {text!r}") from exc
    raise SpecFormatError(f"bad --field value {text!r}; use rational or p:PRIME")


def _read_document(path, what):
    """The JSON document in the file at ``path``; ``what`` names the file in errors.

    Invalid UTF-8, nesting too deep for the parser and integers past Python's
    digit limit are reported like any other invalid JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SpecFormatError(f"invalid JSON in {what} file: {exc}") from exc


def _read_spec(args) -> BandedSpec:
    """The spec the arguments name, over ``--field`` when one is given."""
    if getattr(args, "example", None):
        if getattr(args, "spec", None):
            raise SpecFormatError("give either --spec or --example, not both")
        spec = fixtures.example_spec(args.example)
    elif getattr(args, "spec", None):
        spec = BandedSpec.from_json_doc(_read_document(args.spec, "spec"))
    else:
        raise SpecFormatError("a spec is required: --spec PATH or --example NAME")
    if getattr(args, "field", None):
        override = _parse_field_flag(args.field)
        if override != spec.field:
            doc = spec.to_json_doc()
            doc["field"] = field_to_json(override)
            spec = BandedSpec.from_json_doc(doc)
    return spec


def _load_spec(args) -> tuple[BandedSpec, BlockWeights]:
    """The spec the arguments name, and its block weights at ``--block-size``."""
    spec = _read_spec(args)
    return spec, block_reduce(spec, args.block_size)


# Least accepted value of each integer flag, for the commands that have it.
_FLAG_MINIMA = {
    "order": 0, "extra": 0, "guard": 0, "degx": 1, "degz": 0,
    "length": 0, "enum_length": 0, "block_size": 1,
}


def _check_flag_ranges(args) -> None:
    for name, least in _FLAG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise SpecFormatError(f"{flag} must be at least {least}, got {value}")


def _emit(doc, out_path) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SpecFormatError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _series_doc(series):
    fmt = series.field.format
    return [fmt(c) for c in series.coeffs]


def cmd_series(args) -> int:
    spec, weights = _load_spec(args)
    report, gv = cross_check(spec, args.order, weights)
    _emit(
        {
            "command": "series",
            "order": args.order,
            "coefficients": _series_doc(gv),
            "cross_check": report,
        },
        args.out,
    )
    return EXIT_OK


def cmd_annihilate(args) -> int:
    spec = _read_spec(args)
    checked_block_size(spec, args.block_size)
    require_order(args.order, args.degx, args.degz, args.guard)
    den, scaled = clear_spec(spec)
    deeper = direct_route(scaled, args.order + args.extra)
    poly, res = certify(deeper, args.order, args.degx, args.degz, args.guard, den)
    doc = {
        "command": "annihilate",
        "order": args.order,
        "degx": args.degx,
        "degz": args.degz,
    }
    if poly is None:
        ok = False
        doc.update(polynomial=None, status="none-found")
    else:
        ok = bool(res)
        doc.update(
            polynomial=poly.to_json_doc(),
            verified_to_order=res.checked_order,
            status="pass" if ok else "fail",
        )
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _report_command(args, report) -> int:
    """Print a check report under the command's name; exit 1 if a check failed."""
    doc = report.to_json_doc()
    doc["command"] = args.command
    _emit(doc, args.out)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_verify_example(args) -> int:
    override = None
    if args.poly:
        field = fixtures.example_spec(args.name).field
        override = AnnihilatorPoly.from_json_doc(_read_document(args.poly, "polynomial"), field)
    report = fixtures.run_checks(args.name, args.order, override_poly=override)
    return _report_command(args, report)


def cmd_oracle(args) -> int:
    _, weights = _load_spec(args)
    return _report_command(args, oracle_comparison(weights, args.length))


def cmd_check_identity(args) -> int:
    _, weights = _load_spec(args)
    report = run_identity_suite(weights, order=args.order, enum_length=args.enum_length)
    return _report_command(args, report)


def _section5_command(args, path, what, decode, pipeline) -> int:
    """Run a Section 5 ``pipeline`` on the document at ``path``, read by ``decode``,
    at the checked ``--block-size``; no block weights are cut."""
    spec = _read_spec(args)
    s = checked_block_size(spec, args.block_size)
    data = decode(_read_document(path, what), spec.field, s)
    series = pipeline(spec, s, data, args.order)
    _emit(
        {
            "command": args.command,
            "order": args.order,
            "coefficients": _series_doc(series),
        },
        args.out,
    )
    return EXIT_OK


def cmd_weighted(args) -> int:
    return _section5_command(
        args, args.weights, "weights", weight_rules_from_json_doc, weighted_series
    )


def cmd_affine(args) -> int:
    return _section5_command(
        args, args.recursion, "recursion", recursion_from_json_doc, affine_pipeline
    )


def _add_spec_args(p, with_order=True):
    p.add_argument("--spec", help="path to a JSON matrix spec")
    p.add_argument(
        "--example",
        choices=fixtures.EXAMPLE_NAMES,
        help="use a built-in example instead of --spec",
    )
    p.add_argument("--field", help="override the coefficient field: rational or p:PRIME")
    p.add_argument("--block-size", type=int, default=None, help="override block size s")
    if with_order:
        p.add_argument("--order", type=int, default=40, help="truncation order N")
    p.add_argument("--out", help="write the JSON result here instead of stdout")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser as it was (each call fills a new namespace),
    so in-process callers of :func:`main` pay for the tree once.
    """
    parser = argparse.ArgumentParser(
        prog="bandedgf",
        description=(
            "Exact generating functions of banded, eventually periodic "
            "infinite matrices, with algebraicity certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="cross-checked corner generating function")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("annihilate", help="reconstruct and verify an annihilating polynomial")
    _add_spec_args(p)
    p.add_argument("--degx", type=int, required=True, help="x-degree bound")
    p.add_argument("--degz", type=int, required=True, help="z-degree bound")
    p.add_argument(
        "--guard", type=int, default=DEFAULT_GUARD, help="extra orders beyond the unknown count"
    )
    p.add_argument("--extra", type=int, default=20, help="additional orders for re-verification")
    p.set_defaults(fn=cmd_annihilate)

    p = sub.add_parser("verify-example", help="re-verify a built-in example")
    p.add_argument("name", choices=fixtures.EXAMPLE_NAMES)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--poly", help="check this polynomial JSON against the example series")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify_example)

    p = sub.add_parser(
        "oracle",
        help="walk-sum oracle (one forward pass per walk class) against every engine output",
    )
    _add_spec_args(p, with_order=False)
    p.add_argument("--length", type=int, default=10, help="maximum walk length")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("check-identity", help="run the full identity suite")
    _add_spec_args(p)
    p.add_argument(
        "--enum-length", type=int, default=DEFAULT_ENUM_LENGTH,
        help="longest walk the walk-sum oracle checks against the identities",
    )
    p.set_defaults(fn=cmd_check_identity)

    p = sub.add_parser("weighted", help="weighted corner sums from a rules file")
    _add_spec_args(p)
    p.add_argument("--weights", required=True, help="path to a weight-rules JSON file")
    p.set_defaults(fn=cmd_weighted)

    p = sub.add_parser("affine", help="affine recursion readout series")
    _add_spec_args(p)
    p.add_argument("--recursion", required=True, help="path to a recursion JSON file")
    p.set_defaults(fn=cmd_affine)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flag_ranges(args)
        return args.fn(args)
    except RouteMismatchError as exc:
        line, code = f"mismatch: {exc}", EXIT_MISMATCH
    except (SpecFormatError, InsufficientPrecisionError) as exc:
        line, code = f"input error: {exc}", EXIT_INPUT
    except BandedGFError as exc:
        line, code = f"error: {exc}", EXIT_INPUT
    print(line if len(line) <= ERROR_LINE_CAP else line[:ERROR_LINE_CAP] + "...", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
