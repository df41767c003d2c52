"""Weighted corner sums and the affine transfer pipeline.

Both read the first columns of the powers of V, and take the spec and a
block size s, which only names the residue classes of the forcing rules; no
block is cut:

* the affine recursion y^(n+1) = T y^(n) + sum_k (V^n)_{k,1} y_k with a
  linear readout, which reduces the transfer-operator series
  sum_n l(T^n E_1) z^n to those first columns;
* general weighted corner sums: given a scalar sequence a_1, a_2, ... that is
  eventually polynomial along every residue class mod s, the series
  sum_n (sum_k a_k (V^n)_{k,1}) z^n.  This is the affine recursion with
  T = 0, readout 1 and forcing a, whose y^(n+1) is the z^n sum, so
  ``weighted_series`` is ``affine_pipeline`` read one order later.

The binomially weighted standard-walk sums G*_r, which need whole blocks of
the walk table rather than first columns, are
:meth:`~bandedgf.walks.UTable.binomial_sums`.

``affine_pipeline`` forms the per-order sums S_n = sum_k (V^n)_{k,1} y_k on
integers from end to end.  Over Q it reads the first columns of L·V, L the
:func:`~bandedgf.fields.denominator` of V's own band and exceptional values
(read off the spec by :func:`~bandedgf.banded.clear_spec`), whose n-th power
is L^n V^n and stays on Python ints, and it tabulates the forcing values
cleared by M, the denominator of every rule's initial values and polynomial
coefficients, once per residue class as ints; each integral sum is L^n M
times the true one.  A column holds only its rows up to the frontier of
:func:`~bandedgf.engine.corner_first_columns` and a table only the s·order
indices any sum reads, and the entries past either are zero, so each sum is
one dot product over the shorter of the two.  The state is the integral
u_n = M (L K)^(n-1) y^(n), K the denominator of T, divided back once per
coefficient.  Over F_p, whose scalars are ints, L = M = K = 1, and the
columns come unreduced between the reductions that
:func:`~bandedgf.engine.corner_first_columns` makes every few steps; the sums
S_n are reduced mod p where they enter the state u_n, which is reduced as it
is formed.  :func:`~bandedgf.engine.corner_first_columns` itself is not
rescaled, so the direct route of ``cross_check``, which shares it, stays an
independent computation on the original Fraction spec.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add, mul

from . import matrices as cm
from .banded import BandedSpec, clear_spec
from .engine import corner_first_columns
from .errors import ShapeError, SpecFormatError
from .fields import Field, cleared, denominator, is_json_int
from .series import Series, require_nonnegative


class EventuallyPolySeq:
    """Scalar sequence a_1, a_2, ... eventually polynomial on each residue class.

    For residue i in 1..s the subsequence k -> a_{i+sk} is given by explicit
    initial values followed by a polynomial in k: a_{i+sk} is ``initial[k]``
    while k is in range and the polynomial at k after.  ``rules[i-1]`` holds
    the pair (initial, poly) of residue i, reduced into the field;
    :func:`_rule_tables` evaluates them.
    """

    def __init__(self, field: Field, s: int, rules):
        if len(rules) != s:
            raise ShapeError(f"need one rule per residue 1..{s}, got {len(rules)}")
        self.field = field
        self.s = s
        self.rules = tuple(
            (
                tuple(field.reduce(v) for v in initial),
                tuple(field.reduce(c) for c in poly),
            )
            for initial, poly in rules
        )


def _rule_tables(field: Field, rules, count: int):
    """(M, tables): M the denominator of every rule's initial values and
    polynomial coefficients, and per rule the list of M·a_k for k = 1..count
    as ints (reduced over F_p).

    Along residue class i the values are the cleared initial ones, then the
    cleared polynomial at k = len(initial), ..., evaluated by Horner on all of
    those k at once: deg passes of int operations per class.
    """
    den = denominator(v for rule in rules for pair in rule.rules for terms in pair for v in terms)
    tables = []
    for rule in rules:
        vals = [0] * count
        for i, (initial, poly) in enumerate(rule.rules):
            ks = range(len(initial), len(range(i, count, rule.s)))
            acc = [0] * len(ks)
            for c in reversed(poly):
                acc = list(map(add, map(mul, acc, ks), repeat(cleared(c, den))))
            vals[i :: rule.s] = [cleared(v, den) for v in initial[: ks.stop]] + acc
        tables.append(field.reduce_all(vals))
    return den, tables


class AffineRecursion:
    """Data for the affine pipeline: matrix T, readout l, and forcing rules.

    ``y_rules`` holds one EventuallyPolySeq per coordinate of Y; stacking
    their values at index k gives the forcing vector y_k.
    """

    def __init__(self, field: Field, dim_y: int, t, l, y_rules):
        self.field = field
        self.dim_y = dim_y
        self.t = cm.freeze(t)
        cm.check_square(self.t, dim_y)
        self.l = tuple(field.reduce(v) for v in l)
        if len(self.l) != dim_y:
            raise ShapeError(f"readout has length {len(self.l)}, expected {dim_y}")
        self.y_rules = tuple(y_rules)
        if len(self.y_rules) != dim_y:
            raise ShapeError(
                f"need one forcing rule per coordinate, got {len(self.y_rules)}"
            )
        residues = {rule.s for rule in self.y_rules}
        if len(residues) > 1:
            raise ShapeError("forcing rules disagree on the residue count")

    @property
    def s(self) -> int:
        return self.y_rules[0].s


def affine_pipeline(
    spec: BandedSpec, s: int, rec: AffineRecursion, order: int
) -> Series:
    """Readout series of y^(n+1) = T y^(n) + sum_k (V^n)_{k,1} y_k from y^(0) = 0.

    ``s`` is a block size of ``spec`` the caller has checked, and must match
    the residue count of the forcing rules.  The sums run on the first columns
    of L·V against the rule values times M, and the state is the integral
    u_n = M (L K)^(n-1) y^(n) (see the module docstring):
    u_(n+1) = L (K T) u_n + K^n S_n, and the z^n coefficient is
    (l' · u_n) / (J M (L K)^(n-1)), l' = J l cleared of its denominators.
    """
    if rec.s != s:
        raise ShapeError(
            f"forcing rules cover residues mod {rec.s} but the block size is {s}"
        )
    field = spec.field
    red, red_all = field.reduce, field.reduce_all
    lden, scaled = clear_spec(spec)
    columns = corner_first_columns(scaled, order)
    # S_n reads a_k only for k <= s (n + 1): a walk of length n cannot
    # descend more than n block levels.  Only S_0 .. S_(order-1) feed the
    # readout, so the tables stop at s·order and the sums at their length.
    den, tables = _rule_tables(field, rec.y_rules, s * order)
    tden = denominator(v for row in rec.t for v in row)
    rden = denominator(rec.l)
    t = [[cleared(v, tden) * lden for v in row] for row in rec.t]
    l = [cleared(v, rden) for v in rec.l]
    u, tpow = [0] * rec.dim_y, 1
    coeffs, c, step = [field.zero], field.inv(rden * den), field.inv(lden * tden)
    for col in islice(columns, order):
        force = [sum(map(mul, col, vals)) for vals in tables]
        u = red_all([sum(map(mul, row, u)) + tpow * f for row, f in zip(t, force)])
        tpow *= tden
        coeffs.append(red(sum(map(mul, l, u)) * c))
        c = red(c * step)
    return Series(field, coeffs)


def weighted_series(
    spec: BandedSpec, s: int, a: EventuallyPolySeq, order: int
) -> Series:
    """sum_n (sum_k a_k (V^n)_{k,1}) z^n: the affine readout with T = 0,
    l = 1 and forcing ``a``, whose y^(n+1) is the z^n sum, one order later.

    ``s`` is a block size of ``spec`` the caller has checked: it fixes the
    residue classes of the weight rules.
    """
    require_nonnegative(order)
    rec = AffineRecursion(spec.field, 1, [[0]], [1], [a])
    return affine_pipeline(spec, s, rec, order + 1).div_z_pow(1)


# -- JSON input formats ---------------------------------------------------------


def weight_rules_from_json_doc(doc, field: Field, s: int) -> EventuallyPolySeq:
    """Decode {"weights": [{"residue": i, "initial": [...], "poly": [...]}]}."""
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), list):
        raise SpecFormatError('weight rules document needs a "weights" list')
    by_residue = {}
    for rec in doc["weights"]:
        if not isinstance(rec, dict) or "residue" not in rec:
            raise SpecFormatError(f"bad weight rule record: {rec!r}")
        i = rec["residue"]
        if not is_json_int(i) or not 1 <= i <= s:
            raise SpecFormatError(f"residue {i!r} out of range 1..{s}")
        if i in by_residue:
            raise SpecFormatError(f"duplicate weight rule for residue {i}")
        by_residue[i] = (
            field.parse_list(rec.get("initial", []), '"initial"'),
            field.parse_list(rec.get("poly", []), '"poly"'),
        )
    missing = set(range(1, s + 1)) - set(by_residue)
    if missing:
        raise SpecFormatError(f"weight rules missing residues {sorted(missing)}")
    return EventuallyPolySeq(field, s, [by_residue[i] for i in range(1, s + 1)])


def recursion_from_json_doc(doc, field: Field, s: int) -> AffineRecursion:
    """Decode {"dimY": d, "T": [[...]], "l": [...], "y_rule": [rule, ...]}."""
    if not isinstance(doc, dict):
        raise SpecFormatError("recursion document must be a JSON object")
    missing = {"dimY", "T", "l", "y_rule"} - set(doc)
    if missing:
        raise SpecFormatError(f"recursion document lacks keys: {sorted(missing)}")
    d = doc["dimY"]
    if not is_json_int(d) or d < 1:
        raise SpecFormatError(f"dimY must be a positive integer, got {d!r}")
    rows = doc["T"]
    if not isinstance(rows, list):
        raise SpecFormatError(f'"T" must be a list of rows, got {rows!r}')
    t = [field.parse_list(row, 'a row of "T"') for row in rows]
    if len(t) != d or any(len(row) != d for row in t):
        raise SpecFormatError(f"T must be a {d}x{d} matrix")
    l = field.parse_list(doc["l"], '"l"')
    if len(l) != d:
        raise SpecFormatError(f'"l" must list one value per coordinate ({d}), got {len(l)}')
    rules_doc = doc["y_rule"]
    if not isinstance(rules_doc, list) or len(rules_doc) != d:
        raise SpecFormatError(f'"y_rule" must list one rule set per coordinate ({d})')
    y_rules = [weight_rules_from_json_doc(rd, field, s) for rd in rules_doc]
    return AffineRecursion(field, d, t, l, y_rules)
