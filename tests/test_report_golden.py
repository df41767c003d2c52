"""Identity-suite and oracle-comparison documents, pinned in full.

``data/report_golden.json`` holds ``to_json_doc()`` of
``run_identity_suite(w, 8, 6)`` and of ``oracle_comparison(w, 6)`` on the four
built-in examples, each with the engine intact and under four corruptions:
a corrupted walk table and a tampered fixed-point route (the corruptions that
``test_identities.py`` uses), a walk-sum oracle with one wrong endpoint sum,
and a symbol-power stream with one wrong term.  So failing documents are
pinned as well as passing ones.  Re-record with
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

import bandedgf.identities as identities
from bandedgf import fixtures
from bandedgf.banded import block_reduce
from bandedgf.engine import fixed_point_route
from bandedgf.laurent import trimmed_powers
from bandedgf.walks import class_sums, u_table

GOLDEN = Path(__file__).resolve().parent / "data" / "report_golden.json"


def _bump(mat):
    rows = [list(r) for r in mat]
    rows[0][0] = (rows[0][0] + 1) % 101
    return tuple(tuple(r) for r in rows)


def corrupt_u_table(weights, order):
    table = u_table(weights, order)
    rows = list(table.rows)
    rows[2] = (_bump(rows[2][0]),) + tuple(rows[2][1:])
    return type(table)(table.field, table.s, tuple(rows))


def tampered_fixed_point_route(weights, order):
    bundle = fixed_point_route(weights, order)
    coeffs = list(bundle.gw.coeffs)
    coeffs[3] = _bump(coeffs[3])
    bundle.gw = type(bundle.gw)(bundle.gw.field, bundle.gw.s, coeffs)
    return bundle


def corrupt_class_sums(weights, length):
    sums = class_sums(weights, length)
    if length >= 3:
        sums.by_finish[3][1] = _bump(sums.by_finish[3][1])
    return sums


def corrupt_trimmed_powers(field, a, b, c, order):
    for n, term in enumerate(trimmed_powers(field, a, b, c, order)):
        if n == 3:
            r = len(term) // 2
            term = term[:r] + (_bump(term[r]),) + term[r + 1 :]
        yield term


CORRUPTIONS = {
    "none": None,
    "u_table": corrupt_u_table,
    "fixed_point_route": tampered_fixed_point_route,
    "class_sums": corrupt_class_sums,
    "trimmed_powers": corrupt_trimmed_powers,
}

RUNS = {
    "suite": lambda w: identities.run_identity_suite(w, 8, 6),
    "oracle": lambda w: identities.oracle_comparison(w, 6),
}


def document(example, corruption, run):
    w = block_reduce(fixtures.example_spec(example))
    fake = CORRUPTIONS[corruption]
    with mock.patch.object(identities, corruption, fake) if fake else contextlib.nullcontext():
        return RUNS[run](w).to_json_doc()


def all_cases():
    return [
        {"example": example, "corruption": corruption, "run": run}
        for example in fixtures.EXAMPLE_NAMES
        for corruption in CORRUPTIONS
        for run in RUNS
    ]


def _id(case):
    return f"{case['run']} {case['example']} {case['corruption']}"


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()), ids=_id)
def test_report_document_is_unchanged(case):
    assert document(case["example"], case["corruption"], case["run"]) == case["doc"]


if __name__ == "__main__":
    cases = [{**case, "doc": document(**case)} for case in all_cases()]
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True))
