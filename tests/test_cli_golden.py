"""Default CLI output, pinned byte for byte.

``data/cli_golden.json`` holds 180 argvs, covering every command
on the four built-in examples over Q and F_101, ``annihilate`` on them over
F_(2^61-1) and F_(2^31-1) (the primes of the certify benchmark),
``series --order 200`` on each example (and on ex4.2 over F_(2^61-1)) and
``check-identity --order 60`` on ex4.2 and ex4.3, so the block routes are
pinned past small orders, ``weighted`` and ``affine`` on a fractional spec
with fractional and integral rules over Q and F_(2^61-1), ``weighted`` and
``affine`` at the section5 benchmark's orders (ex4.1 and ex5.12 ``weighted``
at 166 and 217, ex4.2 and ex4.3 ``affine`` at 105 and 120), an ``affine``
whose T, readout and rules are all fractional, over Q and F_(2^61-1), a spec
whose bands reach farther up than down, with sub-diagonal exceptional
entries, under both commands (rules such as k(k+1)/2, whose values clear
with a smaller lcm than their coefficients, included), ``weighted`` and
``affine`` at orders 0 and 1 on ex4.1 and ex5.12 over Q and F_2, a spec whose
redundant override (equal to the band value) puts its exceptional bound 6
past its block size 2, so the first-column frontier runs longer than
s (n + 1), under ``weighted``, ``affine`` and ``series``, ``annihilate``
over Q on three specs with true fractions (the series' own coefficients are
fractions, so each row of the system is cleared), each once found and once
not found, ``weighted`` and ``affine`` on a spec whose corner value 1/5 has a
denominator no band value has, over Q and F_(2^61-1), ``annihilate`` whose
nullspace is far shorter than its system (ex4.2 at order 120 and bounds
(3,7), a four-dimensional nullspace; ex4.1 not found at order 80 over
F_(2^61-1)), ``annihilate`` on ex4.1 with every value divided by 3 (found,
not found, and over F_(2^31-1)), a ``--guard 0`` reconstruction on a
fractional spec whose verification fails, an invalid ``--block-size``
under ``annihilate``, invalid ``--block-size`` values under ``series`` and
``annihilate`` whose first failure is an override (on a band or off every
band, in either entry of the shift condition), a band reaching past s above the diagonal, or one reaching
past s below it (the transposed corner entry), a valid
``annihilate --block-size 40``, specs with no declared block size whose
chosen size comes from an override (a tridiagonal spec of ones with
v_{5,5} = 2, s = 9, under ``weighted``, ``annihilate`` and ``series``; the
same with a redundant v_{5,5} = 1, s = 5, and ex4.1's bands with
v_{3,4} = 7, s = 6, under ``weighted``, whose missing-residue error lists
2..s), ``weighted`` and ``affine`` on ex4.1 at the valid non-default
``--block-size 4`` with four-residue rules, and at the invalid
``--block-size 3`` with a malformed rules document (the block-size error
comes first), a spec with two exceptional records for one cell (refused), a
one-band spec at offset 10^6, whose block-size check is refused before it
builds a row, under ``series``, ``annihilate`` and ``weighted``, a one-band
spec at offset -16,000, whose check passes and whose direct route is refused
under ``annihilate`` before its first column,
``verify-example --poly`` with the ex4.1 golden cubic and a one-coefficient
perturbation of it (passing and failing checks), and one refusal per
document defect the decoders name (a spec that is not a JSON object, a
duplicate band offset, an exceptional record without ``value``, a string or
zero ``block_size``, period 0, an exceptional index 0, band values 1.5 over Q
and F_101, a non-fraction string over F_101, the strings "1.5", "1e0"
and " 1 " over Q (each refused, though ``Fraction`` reads them), no spec at
all, a duplicate weight residue, a recursion without ``l`` and ``y_rule``, a ``T`` that is not
d-by-d, a ``y_rule`` list or readout ``l`` of the wrong length, and band
values 1/3 over F_3, given in the spec or by ``--field p:3``), with the
stdout, stderr and exit code that ``cli.main`` gave for each.  Documents
named in an argv as ``{key}`` are written to files first, from the file's
``documents`` table.  A refactor must leave every case unchanged; when an
output changes on purpose, re-record the file with
``python tests/test_cli_golden.py`` and say why in the change log.

The script records whatever ``bandedgf`` it imports.  So cases that a
refactor must keep are recorded with the parent commit's ``src`` (from a
``git archive`` copy) first on ``PYTHONPATH``, never with the new code.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from bandedgf import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
DATA = json.loads(GOLDEN.read_text())


def write_documents(root: Path):
    paths = {}
    for key, doc in DATA["documents"].items():
        path = root / f"{key}.json"
        path.write_text(json.dumps(doc))
        paths[key] = str(path)
    return paths


def run(argv, paths):
    real = [a.format(**paths) if a.startswith("{") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(real)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: " ".join(c["argv"]))
def test_default_output_is_unchanged(tmp_path, case):
    assert run(case["argv"], write_documents(tmp_path)) == case


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(Path(tmp))
        DATA["cases"] = [run(case["argv"], paths) for case in DATA["cases"]]
    GOLDEN.write_text(json.dumps(DATA, indent=1, sort_keys=True))
