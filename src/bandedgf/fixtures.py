"""Built-in example fixtures, each a matrix spec with verified golden data.

Four examples ship with the package (names ex4.1, ex4.2, ex4.3, ex5.12):

* ``ex4.1`` — tridiagonal band of ones plus a third superdiagonal that is on
  for odd rows; golden data is its annihilating cubic.
* ``ex4.2`` — the same with the extra band on for even rows (block size 4);
  golden data is the verified annihilating cubic.
* ``ex4.3`` — symmetric off-diagonal ones plus symmetric third bands on rows
  congruent 2 mod 3; golden data is a closed form in one square root and the
  characteristic polynomial of the step symbol.
* ``ex5.12`` — symmetric off-diagonal ones with a corner loop, driving a
  two-dimensional affine recursion; golden data is the closed form of the
  readout series and a polynomial identity tying it to sqrt(1 - 4 z^2).

Every golden value here is verified by the test suite against all engine
routes at extended order; ``run_checks`` re-verifies a named example end to
end and is what the verify-example command calls.
"""

from __future__ import annotations

from fractions import Fraction

from .annihilator import (
    AnnihilatorPoly,
    ClosedForm,
    VerifyResult,
    check_closed_form_sqrt,
    reconstruct,
    verify,
)
from .banded import BandedSpec, block_reduce
from .engine import cross_check, symbol_determinant
from .errors import InsufficientPrecisionError, RouteMismatchError
from .fields import QQ
from .identities import CheckReport, IdentityCheck
from .section5 import AffineRecursion, EventuallyPolySeq, affine_pipeline


def ex41_spec() -> BandedSpec:
    return BandedSpec(
        QQ,
        2,
        {-1: [1, 1], 0: [1, 1], 1: [1, 1], 3: [1, 0]},
        [],
        block_size=2,
    )


def ex41_annihilator() -> AnnihilatorPoly:
    return AnnihilatorPoly(
        QQ,
        [
            [1, -2, 1],
            [-1, 3, -4, 2],
            [0, 0, 2, -4, 3],
            [0, 0, 0, 0, -1, 1],
        ],
    )


def ex42_spec() -> BandedSpec:
    return BandedSpec(
        QQ,
        2,
        {-1: [1, 1], 0: [1, 1], 1: [1, 1], 3: [0, 1]},
        [],
        block_size=4,
    )


def ex42_annihilator() -> AnnihilatorPoly:
    """Annihilator of the ex4.2 corner series, verified to order 120.

    Cross-checked against all three routes and recovered by reconstruction
    at bounds (3, 7); in factored form
    z^2 (z-1)^2 x^3 + z^2 (z-1) x^2 + (2z-1) x + (1-z).
    """
    return AnnihilatorPoly(
        QQ,
        [
            [1, -1],
            [-1, 2],
            [0, 0, -1, 1],
            [0, 0, 1, -2, 1],
        ],
    )


def ex43_spec() -> BandedSpec:
    return BandedSpec(
        QQ,
        3,
        {-3: [0, 1, 0], -1: [1, 1, 1], 1: [1, 1, 1], 3: [0, 1, 0]},
        [],
        block_size=3,
    )


def ex43_closed_form() -> ClosedForm:
    """4 / (3 + z^2 + sqrt(1 - 10 z^2 + 9 z^4))."""
    return ClosedForm(
        QQ,
        radicand=[1, 0, -10, 0, 9],
        num_plain=[4],
        den_plain=[3, 0, 1],
        den_radical=[1],
    )


# Coefficients by x-degree of the step-symbol characteristic polynomial of
# ex4.3, each a z-polynomial (ascending): -x^2 (z x^2 + (3 z^2 - 1) x + z).
EX43_SYMBOL_DET = ((0,), (0,), (0, -1), (1, 0, -3), (0, -1), (0,), (0,))

# Deterministic sample points for spot-checking the symbol determinant.
SAMPLE_POINTS = (
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(2, 7),
    Fraction(-3, 5),
    Fraction(5, 11),
)


def _ex43_symbol_det_at(z0):
    return tuple(
        QQ.reduce(sum(Fraction(c) * z0 ** k for k, c in enumerate(poly)))
        for poly in EX43_SYMBOL_DET
    )


def ex512_spec() -> BandedSpec:
    return BandedSpec(QQ, 1, {-1: [1], 1: [1]}, [(1, 1, 1)], block_size=1)


def ex512_recursion() -> AffineRecursion:
    return AffineRecursion(
        QQ,
        2,
        [[16, 4], [0, 4]],
        [1, 0],
        [
            EventuallyPolySeq(QQ, 1, [((6,), (6, 8))]),
            EventuallyPolySeq(QQ, 1, [((0,), (1,))]),
        ],
    )


def ex512_readout_closed_form() -> ClosedForm:
    """(4z (1-2z)^2 + (2z - 12 z^2) sqrt(1 - 4 z^2)) / ((1-16z)(1-4z)(1-2z)^2)."""
    return ClosedForm(
        QQ,
        radicand=[1, 0, -4],
        num_plain=[0, 4, -16, 16],
        num_radical=[0, 2, -12],
        den_plain=[1, -24, 148, -336, 256],
    )


def ex512_starred_closed_form() -> ClosedForm:
    """(-1 + 2z + sqrt(1 - 4 z^2)) / (2z (1 - 2z))."""
    return ClosedForm(
        QQ,
        radicand=[1, 0, -4],
        num_plain=[-1, 2],
        num_radical=[1],
        den_plain=[0, 2, -4],
    )


_BUILDERS = {"ex4.1": ex41_spec, "ex4.2": ex42_spec, "ex4.3": ex43_spec, "ex5.12": ex512_spec}
EXAMPLE_NAMES = tuple(_BUILDERS)


def example_spec(name: str) -> BandedSpec:
    if name not in _BUILDERS:
        raise KeyError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    return _BUILDERS[name]()


def _outcome(name, res, what):
    """A check from a result that knows its first bad order."""
    return IdentityCheck(name, None if res else f"first {what} at z^{res.first_bad_order}")


def _golden_checks(gv, golden):
    checks = [
        _outcome("golden_annihilator_residual_zero", verify(golden, gv), "nonzero residual")
    ]
    try:
        found = reconstruct(gv, golden.dx, golden.dz)
    except InsufficientPrecisionError:  # the order is too low for the golden bounds
        return checks
    if found is None:
        detail = "no annihilator found"
    else:
        detail = None if found == golden else f"found degrees ({found.dx},{found.dz})"
    checks.append(IdentityCheck("reconstruction_recovers_golden", detail))
    return checks


def run_checks(
    name: str, order: int = 40, override_poly: AnnihilatorPoly | None = None
) -> CheckReport:
    """Re-verify a built-in example; returns a report of named checks.

    With ``override_poly`` the golden annihilator checks of ex4.1 and ex4.2
    are skipped, and every example ends with that polynomial's residual
    against its series (the readout series for ex5.12).
    """
    spec = example_spec(name)
    w = block_reduce(spec)
    header = {"example": name, "order": order}
    try:
        _, gv = cross_check(spec, order, weights=w)
    except RouteMismatchError as exc:
        return CheckReport(header, "checks", [IdentityCheck("route_agreement", str(exc))])

    checks = [IdentityCheck("route_agreement")]

    target = gv
    if name in ("ex4.1", "ex4.2"):
        if override_poly is None:
            golden = ex41_annihilator() if name == "ex4.1" else ex42_annihilator()
            checks.extend(_golden_checks(target, golden))
    elif name == "ex4.3":
        checks.append(
            _outcome("closed_form_match", check_closed_form_sqrt(target, ex43_closed_form()),
                     "mismatch")
        )
        det_failure = next(
            (f"symbol determinant differs at z = {z0}" for z0 in SAMPLE_POINTS
             if symbol_determinant(w, z0) != _ex43_symbol_det_at(z0)),
            None,
        )
        checks.append(IdentityCheck("symbol_determinant_samples", det_failure))
    elif name == "ex5.12":
        target = readout = affine_pipeline(spec, w.s, ex512_recursion(), order)
        first = [QQ.format(c) for c in readout.coeffs[:3]]
        want = ["0", "6", "116"][: len(first)]
        checks.append(
            IdentityCheck("first_coefficients", None if first == want else f"got {first}")
        )
        form = ex512_readout_closed_form()
        num, den = form.sides(order)
        checks.append(
            _outcome("square_root_identity", VerifyResult(den * readout - num), "mismatch")
        )
        checks.append(
            _outcome("closed_form_match", check_closed_form_sqrt(readout, form), "mismatch")
        )
        checks.append(
            _outcome("starred_closed_form_match",
                     check_closed_form_sqrt(gv, ex512_starred_closed_form()),
                     "mismatch")
        )
    if override_poly is not None:
        checks.append(
            _outcome("external_polynomial_residual_zero", verify(override_poly, target),
                     "nonzero residual")
        )
    return CheckReport(header, "checks", checks)
