"""Identity-suite, oracle-comparison and cross-check documents, pinned in full.

``data/report_golden.json`` holds, on the four built-in examples, the
``to_json_doc()`` of ``run_identity_suite(w, 8, 6)`` and of
``oracle_comparison(w, 6)``, and the outcome of ``cross_check(spec, 8)``:
its report document, or the text and order of the ``RouteMismatchError`` it
raised.  Each run is pinned with the engine intact and under corruptions of
the names its module calls.  The suite and the oracle see a corrupted walk
table and a tampered fixed-point route (the corruptions that
``test_identities.py`` uses), a walk-sum oracle with one wrong endpoint sum,
and a symbol-power stream with one wrong term.  ``cross_check`` sees one
perturbed weight, a tampered fixed-point ``gw``, a tampered Laurent ``m0``,
``m1`` or ``mm1`` (in the first entry of its last row) and each oracle sum it
reads corrupted in turn (in the last entry of its first row), so that the
entry its failure names is off the diagonal where s > 1.  So failing documents are pinned as well as passing ones.  Re-record with
``python tests/test_report_golden.py``.  The script records whatever
``bandedgf`` it imports, so to pin the documents a refactor must keep, run it
with the parent commit's ``src`` (from a ``git archive`` copy) first on
``PYTHONPATH``.
"""

import contextlib
import json
from pathlib import Path
from unittest import mock

import pytest

import bandedgf.engine as engine
import bandedgf.identities as identities
from bandedgf import fixtures
from bandedgf.banded import block_reduce
from bandedgf.engine import fixed_point_route, laurent_route
from bandedgf.errors import RouteMismatchError
from bandedgf.laurent import trimmed_powers
from bandedgf.walks import class_sums, u_table

GOLDEN = Path(__file__).resolve().parent / "data" / "report_golden.json"


def _bump(mat, i=0, j=0):
    rows = [list(r) for r in mat]
    rows[i][j] = (rows[i][j] + 1) % 101
    return tuple(tuple(r) for r in rows)


def _bump_series(series, i=0, j=0):
    coeffs = list(series.coeffs)
    coeffs[3] = _bump(coeffs[3], i, j)
    return type(series)(series.field, series.s, coeffs)


def corrupt_u_table(weights, order):
    table = u_table(weights, order)
    rows = list(table.rows)
    rows[2] = (_bump(rows[2][0]),) + tuple(rows[2][1:])
    return type(table)(table.field, table.s, tuple(rows))


def tampered(route, name, i=0, j=0):
    """``route`` with entry (i, j) of the sum ``name`` it returns bumped at z^3."""

    def run(weights, order):
        bundle = route(weights, order)
        setattr(bundle, name, _bump_series(getattr(bundle, name), i, j))
        return bundle

    return run


def corrupt_class_sums(weights, length):
    sums = class_sums(weights, length)
    if length >= 3:
        sums.by_finish[3][1] = _bump(sums.by_finish[3][1])
    return sums


def corrupted_sum(name):
    """``class_sums`` with the last entry of the first row of ``name`` bumped at z^3."""

    def run(weights, length):
        sums = class_sums(weights, length)
        setattr(sums, name, _bump_series(getattr(sums, name), 0, -1))
        return sums

    return run


def corrupt_trimmed_powers(field, a, b, c, order):
    for n, term in enumerate(trimmed_powers(field, a, b, c, order)):
        if n == 3:
            r = len(term) // 2
            term = term[:r] + (_bump(term[r]),) + term[r + 1 :]
        yield term


def perturbed_block_reduce(spec, s=None):
    w = block_reduce(spec, s)
    return w.replace("b", 0, 0, w.b[0][0] + 1)


# corruption -> (the name it replaces, the replacement), or None for none.
SUITE_CORRUPTIONS = {
    "none": None,
    "u_table": ("u_table", corrupt_u_table),
    "fixed_point_route": ("fixed_point_route", tampered(fixed_point_route, "gw")),
    "class_sums": ("class_sums", corrupt_class_sums),
    "trimmed_powers": ("trimmed_powers", corrupt_trimmed_powers),
}

ENGINE_CORRUPTIONS = {
    "none": None,
    "block_reduce": ("block_reduce", perturbed_block_reduce),
    "fixed_point_route": ("fixed_point_route", tampered(fixed_point_route, "gw")),
    **{
        f"laurent_route {name}": ("laurent_route", tampered(laurent_route, name, -1, 0))
        for name in ("m0", "m1", "mm1")
    },
    **{
        f"class_sums {name}": ("class_sums", corrupted_sum(name))
        for name in ("gw", "gwstar", "m0", "m1", "mm1")
    },
}


def checked(spec):
    try:
        report, _ = engine.cross_check(spec, 8)
    except RouteMismatchError as exc:
        return {"mismatch": str(exc), "order": exc.order}
    return report


# run -> (module whose names the corruptions replace, corruptions, document)
RUNS = {
    "suite": (
        identities,
        SUITE_CORRUPTIONS,
        lambda spec: identities.run_identity_suite(block_reduce(spec), 8, 6).to_json_doc(),
    ),
    "oracle": (
        identities,
        SUITE_CORRUPTIONS,
        lambda spec: identities.oracle_comparison(block_reduce(spec), 6).to_json_doc(),
    ),
    "cross_check": (engine, ENGINE_CORRUPTIONS, checked),
}


def document(example, corruption, run):
    module, corruptions, doc = RUNS[run]
    fake = corruptions[corruption]
    with mock.patch.object(module, *fake) if fake else contextlib.nullcontext():
        return doc(fixtures.example_spec(example))


def all_cases():
    return [
        {"example": example, "corruption": corruption, "run": run}
        for example in fixtures.EXAMPLE_NAMES
        for run, (_, corruptions, _) in RUNS.items()
        for corruption in corruptions
    ]


def _id(case):
    return f"{case['run']} {case['example']} {case['corruption']}"


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()), ids=_id)
def test_report_document_is_unchanged(case):
    assert document(case["example"], case["corruption"], case["run"]) == case["doc"]


if __name__ == "__main__":
    cases = [{**case, "doc": document(**case)} for case in all_cases()]
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True))
