"""Independent reference checker for the outputs of the bandedgf CLI.

Standard library only; it imports nothing from ``bandedgf``.  It reads the
same argv and input files the CLI read and recomputes what the output must
be from the matrix itself:

* ``series``: (V^n)_{1,1} from sparse powers of V applied to e_1;
* ``annihilate``: the residual P(z, G) of the returned polynomial against
  that reference series, through ``order + extra``;
* ``weighted``/``affine``: sums built from the first columns (V^n)_{.,1};
* ``verify-example``/``check-identity``/``oracle``: exit 0 and status pass.

Over Q the matrix is scaled to integers, V = W / D, so every power is an
integer vector over D^n and the hot loops never build a ``Fraction``.
"""

from __future__ import annotations

import argparse
import json
import math
from fractions import Fraction

# The built-in examples, restated from their definitions in the paper.
FIXTURES = {
    "ex4.1": {
        "field": "rational", "period": 2, "block_size": 2,
        "bands": [{"offset": -1, "values": [1, 1]}, {"offset": 0, "values": [1, 1]},
                  {"offset": 1, "values": [1, 1]}, {"offset": 3, "values": [1, 0]}],
    },
    "ex4.2": {
        "field": "rational", "period": 2, "block_size": 4,
        "bands": [{"offset": -1, "values": [1, 1]}, {"offset": 0, "values": [1, 1]},
                  {"offset": 1, "values": [1, 1]}, {"offset": 3, "values": [0, 1]}],
    },
    "ex4.3": {
        "field": "rational", "period": 3, "block_size": 3,
        "bands": [{"offset": -3, "values": [0, 1, 0]}, {"offset": -1, "values": [1, 1, 1]},
                  {"offset": 1, "values": [1, 1, 1]}, {"offset": 3, "values": [0, 1, 0]}],
    },
    "ex5.12": {
        "field": "rational", "period": 1, "block_size": 1,
        "bands": [{"offset": -1, "values": [1]}, {"offset": 1, "values": [1]}],
        "exceptional": [{"i": 1, "j": 1, "value": 1}],
    },
}

DEFAULT_EXTRA = 20


class CheckFailed(Exception):
    """The output disagrees with the reference."""


# -- fields ------------------------------------------------------------------------


class Ring:
    """Scalars of Q (``p`` is None) or of F_p, parsed from JSON values."""

    def __init__(self, p=None):
        self.p = p

    def parse(self, v):
        if isinstance(v, bool) or not isinstance(v, (int, str)):
            raise CheckFailed(f"bad scalar {v!r}")
        q = Fraction(v)
        if self.p is None:
            return q
        return q.numerator * pow(q.denominator, -1, self.p) % self.p

    def norm(self, x):
        return x if self.p is None else x % self.p


def _field_of(doc, override):
    if override:
        if override == "rational":
            return Ring()
        return Ring(int(override[2:]))
    f = doc["field"]
    return Ring() if f == "rational" else Ring(f["prime"])


# -- the matrix and its first columns ----------------------------------------------


class Matrix:
    """V from a spec document, as integer columns: V = W / scale over Q."""

    def __init__(self, doc, ring: Ring):
        self.ring = ring
        self.period = doc["period"]
        bands = {b["offset"]: [ring.parse(v) for v in b["values"]] for b in doc["bands"]}
        exc = {(e["i"], e["j"]): ring.parse(e["value"]) for e in doc.get("exceptional", [])}
        values = [v for vs in bands.values() for v in vs] + list(exc.values())
        scale = 1 if ring.p is not None else math.lcm(*(v.denominator for v in values))
        self.scale = scale
        self.bands = {r: [int(v * scale) if ring.p is None else v for v in vs]
                      for r, vs in bands.items()}
        self.exc = {k: int(v * scale) if ring.p is None else v for k, v in exc.items()}
        # Exceptional entries by column, so a mat-vec visits only live columns.
        self.exc_by_col = {}
        for (i, j), v in self.exc.items():
            self.exc_by_col.setdefault(j, []).append((i, v))

    def apply(self, x: dict) -> dict:
        """W x for a sparse vector x (1-based index -> value)."""
        p = self.ring.p
        out = {}
        per = self.period
        for j, xj in x.items():
            for r, vals in self.bands.items():
                i = j - r
                if i < 1 or (i, j) in self.exc:
                    continue
                v = vals[(i - 1) % per]
                if v:
                    out[i] = out.get(i, 0) + v * xj
            for i, v in self.exc_by_col.get(j, ()):
                if v:
                    out[i] = out.get(i, 0) + v * xj
        if p is not None:
            out = {i: v % p for i, v in out.items()}
        return {i: v for i, v in out.items() if v}

    def first_columns(self, order: int):
        """Yield (n, W^n e_1) for n = 0..order; (V^n)_{.,1} is that over scale^n."""
        x = {1: 1}
        for n in range(order + 1):
            yield n, x
            if n < order:
                x = self.apply(x)

    def unscale(self, value: int, n: int):
        if self.ring.p is not None:
            return value
        return Fraction(value, self.scale**n)


def corner_series(m: Matrix, order: int):
    return [m.unscale(x.get(1, 0), n) for n, x in m.first_columns(order)]


# -- weight rules ---------------------------------------------------------------------


class Rules:
    """a_k for k >= 1 from an eventually-polynomial weight-rules document."""

    def __init__(self, doc, ring: Ring, s: int):
        self.ring = ring
        self.s = s
        by = {r["residue"]: r for r in doc["weights"]}
        if sorted(by) != list(range(1, s + 1)):
            raise CheckFailed(f"weight rules do not cover residues 1..{s}")
        self.rules = [
            ([ring.parse(v) for v in by[i].get("initial", [])],
             [ring.parse(v) for v in by[i].get("poly", [])])
            for i in range(1, s + 1)
        ]

    def value(self, k: int):
        i = (k - 1) % self.s
        kk = (k - 1) // self.s
        initial, poly = self.rules[i]
        if kk < len(initial):
            return initial[kk]
        acc = 0
        for c in reversed(poly):
            acc = acc * kk + c
        return self.ring.norm(acc)


# -- the checks ------------------------------------------------------------------------


def _parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("command")
    p.add_argument("name", nargs="?")
    for flag in ("--spec", "--example", "--field", "--weights", "--recursion", "--poly", "--out"):
        p.add_argument(flag)
    for flag in ("--order", "--block-size", "--degx", "--degz", "--guard", "--extra",
                 "--length", "--enum-length"):
        p.add_argument(flag, type=int)
    return p


_PARSER = _parser()


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(args):
    doc = FIXTURES[args.example] if args.example else _load(args.spec)
    ring = _field_of(doc, args.field)
    s = args.block_size or doc.get("block_size")
    if s is None:
        raise CheckFailed("spec declares no block_size; the residue count is unknown")
    return Matrix(doc, ring), ring, s


def _coeffs(out, ring: Ring, order: int):
    got = out.get("coefficients")
    if not isinstance(got, list) or len(got) != order + 1:
        raise CheckFailed("coefficient list missing or of the wrong length")
    return [ring.parse(c) for c in got]


def _compare(got, want, ring):
    for n, (a, b) in enumerate(zip(got, want)):
        if ring.norm(a - b) != 0:
            raise CheckFailed(f"coefficient of z^{n} differs from the reference")


def _check_series(args, out):
    m, ring, _ = _matrix(args)
    if out.get("cross_check", {}).get("status") != "pass":
        raise CheckFailed("cross check did not pass")
    _compare(_coeffs(out, ring, args.order), corner_series(m, args.order), ring)


def _series_mul(a, b, ring, order):
    out = []
    for n in range(order + 1):
        out.append(ring.norm(sum(a[k] * b[n - k] for k in range(n + 1))))
    return out


def _check_annihilate(args, out):
    m, ring, _ = _matrix(args)
    extra = DEFAULT_EXTRA if args.extra is None else args.extra
    order = args.order + extra
    if out.get("status") != "pass" or out.get("verified_to_order") != order:
        raise CheckFailed("annihilator not reported as verified")
    grid = out.get("polynomial", {}).get("coeffs")
    if not grid or not any(any(c for c in row) for row in grid):
        raise CheckFailed("no nonzero polynomial returned")
    if len(grid) - 1 > args.degx or max(len(r) for r in grid) - 1 > args.degz:
        raise CheckFailed("polynomial exceeds the degree bounds")
    g = corner_series(m, order)
    # Horner in x: acc = acc * G + row_i(z), from the top x-degree down.
    acc = [0] * (order + 1)
    for row in reversed(grid):
        acc = _series_mul(acc, g, ring, order)
        for j, c in enumerate(row[: order + 1]):
            acc[j] = ring.norm(acc[j] + ring.parse(c))
    if any(ring.norm(c) != 0 for c in acc):
        raise CheckFailed("P(z, G) is not zero through order + extra")


def _check_weighted(args, out):
    m, ring, s = _matrix(args)
    rules = Rules(_load(args.weights), ring, s)
    want = []
    cache = {}
    for n, x in m.first_columns(args.order):
        total = 0
        for k, v in x.items():
            a = cache.get(k)
            if a is None:
                a = cache[k] = rules.value(k)
            total += a * v
        want.append(ring.norm(m.unscale(1, n) * total))
    _compare(_coeffs(out, ring, args.order), want, ring)


def _check_affine(args, out):
    m, ring, s = _matrix(args)
    doc = _load(args.recursion)
    d = doc["dimY"]
    t = [[ring.parse(v) for v in row] for row in doc["T"]]
    lvec = [ring.parse(v) for v in doc["l"]]
    rules = [Rules(rd, ring, s) for rd in doc["y_rule"]]
    y = [0] * d
    want = []
    forcing = {}
    for n, x in m.first_columns(args.order):
        want.append(ring.norm(sum(a * b for a, b in zip(lvec, y))))
        if n == args.order:
            break
        push = [0] * d
        for k, v in x.items():
            yk = forcing.get(k)
            if yk is None:
                yk = forcing[k] = [r.value(k) for r in rules]
            for c in range(d):
                push[c] += v * yk[c]
        unit = m.unscale(1, n)
        y = [ring.norm(sum(t[r][c] * y[c] for c in range(d)) + unit * push[r]) for r in range(d)]
    _compare(_coeffs(out, ring, args.order), want, ring)


def _check_status(args, out):
    if out.get("status") != "pass":
        raise CheckFailed("status is not pass")


CHECKS = {
    "series": _check_series,
    "annihilate": _check_annihilate,
    "weighted": _check_weighted,
    "affine": _check_affine,
    "verify-example": _check_status,
    "check-identity": _check_status,
    "oracle": _check_status,
}


def check(argv, exit_code: int, stdout: str):
    """Return None when the job's output is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "output is not JSON"
    args, _ = _PARSER.parse_known_args(argv)
    if out.get("command") != args.command:
        return "output names another command"
    try:
        CHECKS[args.command](args, out)
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
    return None


def corrupt(stdout: str) -> str:
    """The same output with one coefficient (or the status) flipped."""
    out = json.loads(stdout)
    if "coefficients" in out:
        c = out["coefficients"]
        k = len(c) // 2
        c[k] = str(Fraction(c[k]) + 1)
    elif out.get("polynomial"):
        row = out["polynomial"]["coeffs"][0]
        row[0] = row[0] + 1
    else:
        out["status"] = "fail"
    return json.dumps(out)
