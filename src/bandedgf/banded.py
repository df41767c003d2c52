"""Finite descriptions of banded, eventually periodic infinite matrices.

A matrix V = |v_{i,j}| (rows and columns indexed from 1) is described by

* a period p and a set of bands: the band at offset r fixes
  v_{i,i+r} = values[(i-1) mod p], so each diagonal is periodic in i;
* a finite list of exceptional overrides v_{i,j} = value with i, j <= m,
  which may change or delete entries near the corner (overrides win);
* every entry not covered by a band or an override is 0.

Block reduction rewrites the corner of V in s-by-s blocks

    | D  C  .  .
    | A  B  C  .
    | .  A  B  C
    | .  .  A  B   ...

which is valid for a block size s exactly when

  (1) v_{i,j} = 0 whenever i <= s and j > 2s, or j <= s and i > 2s, and
  (2) v_{i+s,j+s} = v_{i,j} whenever i + j >= s + 2.

Both conditions quantify over all i, j, but checking a finite window
suffices: v_{i,j} can be nonzero only at the columns of :meth:`BandedSpec.row`
(i + r over band offsets r, and row i's overrides), and band values repeat
with period p in i.  So every violation of (1) shows up at j <= s + bandwidth
or j <= m, and every violation of (2) is witnessed with both indices at most
``4s + bandwidth + period + m``: beyond the exceptional square both sides of
(2) are band values, and those repeat after p rows, so p consecutive rows per
band inside the window already decide equality for all larger indices.
Rows have three readers: the check, the cut in :func:`block_reduce` and
``engine.corner_first_columns``.  :meth:`BandedSpec.entry` stays the
independent pointwise reader.
"""

from __future__ import annotations

from itertools import chain

from . import matrices as cm
from .errors import InvalidBlockSizeError, ResourceLimitError, SpecFormatError
from .fields import (
    Field,
    cleared,
    denominator,
    field_from_json,
    field_to_json,
    is_json_int,
    scalar_to_json,
)


# Most cells the block-size check may build: the w + s rows of its window
# (w = 4s + bandwidth + period + m) times one more than the number of bands.
# At the ceiling, one band at offset 16,666 (100,000 rows) takes about 0.25 s
# and 40 MB on a shared 2-core x86-64 host.  The tests and CLI goldens check
# at most 13,000 cells; one band at offset 10^6 would need 1.2·10^7.
CHECK_CEILING = 200_000
# Largest block size block_reduce cuts: its blocks hold 4s^2 scalars, about
# 10^6 here, and the block routes pay O(s^3) per coefficient.  The tests cut
# at s <= 300.
CUT_CEILING = 512


class BandedSpec:
    """Finite description of an infinite banded matrix with periodic diagonals."""

    def __init__(self, field: Field, period: int, bands, exceptional=(), block_size=None):
        if period < 1:
            raise SpecFormatError(f"period must be positive, got {period}")
        self.field = field
        self.period = period
        band_map = {}
        for offset, values in dict(bands).items():
            values = tuple(field.reduce(v) for v in values)
            if len(values) != period:
                raise SpecFormatError(
                    f"band at offset {offset} has {len(values)} values, expected {period}"
                )
            band_map[int(offset)] = values
        self.bands = band_map
        exc, by_row = {}, {}  # by_row: i -> {j: v} over row i's overrides
        if isinstance(exceptional, dict):
            exceptional = [(i, j, v) for (i, j), v in exceptional.items()]
        for i, j, value in exceptional:
            if i < 1 or j < 1:
                raise SpecFormatError(f"exceptional index ({i},{j}) out of range")
            exc[(i, j)] = by_row.setdefault(i, {})[j] = field.reduce(value)
        self.exceptional = exc
        self._row_overrides = by_row
        if block_size is not None and block_size < 1:
            raise SpecFormatError(f"block_size must be positive, got {block_size}")
        self.block_size = block_size

    @property
    def bandwidth(self) -> int:
        return max((abs(r) for r in self.bands), default=0)

    @property
    def exceptional_bound(self) -> int:
        return max((max(i, j) for i, j in self.exceptional), default=0)

    def entry(self, i: int, j: int):
        """Value of v_{i,j} (1-based indices)."""
        if i < 1 or j < 1:
            raise ValueError(f"indices start at 1, got ({i},{j})")
        hit = self.exceptional.get((i, j))
        if hit is not None:
            return hit
        return self.band_value(i, j)

    def band_value(self, i: int, j: int):
        """Value of the band through (i, j), overrides aside: 0 off every band."""
        band = self.bands.get(j - i)
        if band is None:
            return self.field.zero
        return band[(i - 1) % self.period]

    def row(self, i: int) -> dict:
        """Row i's nonzero entries as ``{j: v_{i,j}}``: the band values at
        j = i + r >= 1, then row i's overrides, which win (a zero one deletes
        the entry).  Costs O(bands + row i's overrides)."""
        q = (i - 1) % self.period
        found = {i + r: vals[q] for r, vals in self.bands.items() if i + r >= 1 and vals[q]}
        overrides = self._row_overrides.get(i)
        if overrides:
            found.update(overrides)
            found = {j: v for j, v in found.items() if v}
        return found

    def __repr__(self):
        return (
            f"BandedSpec(period={self.period}, offsets={sorted(self.bands)}, "
            f"exceptional={len(self.exceptional)})"
        )

    # -- JSON round trip ---------------------------------------------------

    @classmethod
    def from_json_doc(cls, doc) -> "BandedSpec":
        if not isinstance(doc, dict):
            raise SpecFormatError("spec document must be a JSON object")
        missing = {"field", "period", "bands"} - set(doc)
        if missing:
            raise SpecFormatError(f"spec document lacks keys: {sorted(missing)}")
        field = field_from_json(doc["field"])
        period = doc["period"]
        if not is_json_int(period):
            raise SpecFormatError(f"period must be an integer, got {period!r}")
        for key in ("bands", "exceptional"):
            if not isinstance(doc.get(key, []), list):
                raise SpecFormatError(f'"{key}" must be a list, got {doc[key]!r}')
        bands = {}
        for rec in doc["bands"]:
            if not isinstance(rec, dict) or {"offset", "values"} - set(rec):
                raise SpecFormatError(f"bad band record: {rec!r}")
            offset = rec["offset"]
            if not is_json_int(offset):
                raise SpecFormatError(f"band offset must be an integer: {offset!r}")
            if offset in bands:
                raise SpecFormatError(f"duplicate band offset {offset}")
            bands[offset] = field.parse_list(rec["values"], "band values")
        exceptional = {}
        for rec in doc.get("exceptional", []):
            if not isinstance(rec, dict) or {"i", "j", "value"} - set(rec):
                raise SpecFormatError(f"bad exceptional record: {rec!r}")
            i, j = rec["i"], rec["j"]
            if not is_json_int(i) or not is_json_int(j):
                raise SpecFormatError(f"exceptional indices must be integers: {rec!r}")
            if (i, j) in exceptional:
                raise SpecFormatError(f"duplicate exceptional entry ({i},{j})")
            exceptional[(i, j)] = field.parse(rec["value"])
        block_size = doc.get("block_size")
        if block_size is not None and not is_json_int(block_size):
            raise SpecFormatError(f"block_size must be an integer: {block_size!r}")
        return cls(field, period, bands, exceptional, block_size)

    def to_json_doc(self) -> dict:
        doc = {
            "field": field_to_json(self.field),
            "period": self.period,
            "bands": [
                {"offset": r, "values": [scalar_to_json(v) for v in self.bands[r]]}
                for r in sorted(self.bands)
            ],
            "exceptional": [
                {"i": i, "j": j, "value": scalar_to_json(v)}
                for (i, j), v in sorted(self.exceptional.items())
            ],
        }
        if self.block_size is not None:
            doc["block_size"] = self.block_size
        return doc


class BlockWeights:
    """The four s-by-s corner blocks A (down), B (level), C (up), D (corner),
    with every entry reduced to its canonical field scalar."""

    def __init__(self, field: Field, s: int, a, b, c, d):
        self.field = field
        self.s = s
        self.a = cm.freeze(map(field.reduce, row) for row in a)
        self.b = cm.freeze(map(field.reduce, row) for row in b)
        self.c = cm.freeze(map(field.reduce, row) for row in c)
        self.d = cm.freeze(map(field.reduce, row) for row in d)
        for m in (self.a, self.b, self.c, self.d):
            cm.check_square(m, s)

    def __eq__(self, other):
        return (
            isinstance(other, BlockWeights)
            and self.field == other.field
            and self.s == other.s
            and (self.a, self.b, self.c, self.d)
            == (other.a, other.b, other.c, other.d)
        )

    def __repr__(self):
        return f"BlockWeights(s={self.s})"

    def replace(self, which: str, i: int, j: int, value) -> "BlockWeights":
        """Copy with one entry of block 'a'/'b'/'c'/'d' set to value (0-based i, j)."""
        blocks = {"a": self.a, "b": self.b, "c": self.c, "d": self.d}
        rows = [list(row) for row in blocks[which]]
        rows[i][j] = value
        blocks[which] = rows
        return BlockWeights(
            self.field, self.s, blocks["a"], blocks["b"], blocks["c"], blocks["d"]
        )


def _window(spec: BandedSpec, s: int) -> int:
    return 4 * s + spec.bandwidth + spec.period + spec.exceptional_bound


def verify_block_size(spec: BandedSpec, s: int) -> None:
    """Raise InvalidBlockSizeError unless s satisfies the two corner conditions.

    Reports the first failure of a scan over i, then j, ascending, with
    (i, j) before (j, i) in (1), but builds each row of the window once,
    with :meth:`~BandedSpec.row`, and compares only the positions where one
    side is nonzero: O(window · bands + overrides), not O(window^2).
    """
    if s < 1:
        raise InvalidBlockSizeError(f"block size must be positive, got {s}")
    w = _window(spec, s)
    rows = [{}, *map(spec.row, range(1, w + s + 1))]
    # (1): the least violation (i, j, transposed), so v_{i,j} before v_{j,i}.
    corner = min(
        chain(
            ((i, j, False) for i in range(1, s + 1) for j in rows[i] if j > 2 * s),
            ((i, j, True) for j in range(2 * s + 1, len(rows)) for i in rows[j] if i <= s),
        ),
        default=None,
    )
    if corner is not None:
        i, j, transposed = corner
        r, c, inner, outer = (j, i, "j", "i") if transposed else (i, j, "i", "j")
        raise InvalidBlockSizeError(
            f"corner condition fails: v_{{{r},{c}}} is nonzero with "
            f"{inner} <= {s} < 2*{s} < {outer}",
            position=(r, c),
        )
    zero = spec.field.zero
    for i in range(1, w + 1):
        lo = max(1, s + 2 - i)
        upper, lower = rows[i], rows[i + s]
        for j in sorted(j for j in upper.keys() | {c - s for c in lower} if lo <= j <= w):
            if lower.get(j + s, zero) != upper.get(j, zero):
                raise InvalidBlockSizeError(
                    f"shift condition fails at ({i},{j}): "
                    f"v_{{{i + s},{j + s}}} != v_{{{i},{j}}}",
                    position=(i, j),
                )


def choose_block_size(spec: BandedSpec) -> int:
    """Smallest valid multiple of the period p covering band and corner widths.

    That is the least multiple of p that is at least need = max(bandwidth, m,
    1, i + j - 1 over every override (i, j) whose value differs from
    :meth:`~BandedSpec.band_value` there), m the exceptional bound.  Take a
    multiple s of p with s >= max(bandwidth, m).  Condition (1) holds: band
    entries have |j - i| <= bandwidth <= s, and overrides lie in rows and
    columns <= m <= s.  In (2), v_{i+s,j+s} is never an override, as
    i + s > m, and it equals the band value at (i, j), as p divides s.  So
    (2) fails exactly at an override with i + j >= s + 2 whose value differs
    from its band value.  No entry is read and no check is run.
    """
    need = max(
        spec.bandwidth, spec.exceptional_bound, 1,
        *(i + j - 1 for (i, j), v in spec.exceptional.items() if v != spec.band_value(i, j)),
    )
    return -(-need // spec.period) * spec.period


def checked_block_size(spec: BandedSpec, s: int | None) -> int:
    """s, or else the spec's declared block size, or else the chosen one,
    once :func:`verify_block_size` has passed it.

    Raises ResourceLimitError, before any row is built, when the check's
    rows times one more than the number of bands exceed CHECK_CEILING.
    """
    if s is None:
        s = spec.block_size if spec.block_size is not None else choose_block_size(spec)
    rows = _window(spec, s) + s
    cells = rows * (len(spec.bands) + 1)
    if cells > CHECK_CEILING:
        raise ResourceLimitError(
            f"checking block size {s} builds {rows} rows ({cells} cells), "
            f"past the ceiling of {CHECK_CEILING} cells"
        )
    verify_block_size(spec, s)  # for a chosen s, the runtime check of its rule
    return s


def block_reduce(spec: BandedSpec, s: int | None = None) -> BlockWeights:
    """Cut the verified 2s-by-2s corner into the D, C / A, B block weights,
    filled from rows 1..2s of :meth:`~BandedSpec.row`.

    Raises ResourceLimitError, once the check has passed, past s = CUT_CEILING.
    """
    s = checked_block_size(spec, s)
    if s > CUT_CEILING:
        raise ResourceLimitError(
            f"block size {s} is past the ceiling {CUT_CEILING} for cutting blocks"
        )
    corner = [[spec.field.zero] * (2 * s) for _ in range(2 * s)]
    for i, row in enumerate(corner, 1):
        for j, v in spec.row(i).items():
            if j <= 2 * s:
                row[j - 1] = v
    # Rows 1..s are D | C, rows s+1..2s are A | B.
    (d, c), (a, b) = ([[row[k:k + s] for row in half] for k in (0, s)]
                      for half in (corner[:s], corner[s:]))
    return BlockWeights(spec.field, s, a, b, c, d)


def clear_denominators(w: BlockWeights) -> tuple[int, BlockWeights]:
    """``(L, L·w)``, L the :func:`~bandedgf.fields.denominator` of the entries.

    Every walk of length n has n steps, so the z^n coefficient of any walk sum
    for L·w is L^n times the one for w: the routes may run on the integral
    weights L·w (plain ints, no Fraction normalisation) and divide coefficient
    n by L^n afterwards.  When L = 1, as always over F_p, ``w`` itself comes
    back, not a copy.
    """
    blocks = (w.a, w.b, w.c, w.d)
    den = denominator(v for m in blocks for row in m for v in row)
    if den == 1:
        return 1, w
    return den, BlockWeights(
        w.field, w.s, *([[cleared(v, den) for v in row] for row in m] for m in blocks)
    )


def clear_spec(spec: BandedSpec) -> tuple[int, BandedSpec]:
    """``(L, L·V)``, L the :func:`~bandedgf.fields.denominator` of V's band and
    exceptional values: the spec-level twin of :func:`clear_denominators`.

    (L V)^n = L^n V^n, so the corner series of L·V is g(L z), with integer
    coefficients L^n g_n.  When L = 1, as always over F_p, ``spec`` itself
    comes back, not a copy.
    """
    den = denominator(chain(spec.exceptional.values(), *spec.bands.values()))
    if den == 1:
        return 1, spec
    return den, BandedSpec(
        spec.field,
        spec.period,
        {r: [cleared(v, den) for v in vals] for r, vals in spec.bands.items()},
        [(i, j, cleared(v, den)) for (i, j), v in spec.exceptional.items()],
        spec.block_size,
    )


def from_block_weights(w: BlockWeights) -> BandedSpec:
    """Banded spec of the infinite block matrix generated by the weights.

    The result has period s, bands read off the A/B/C pattern, and exceptional
    overrides only where the corner block D differs from the repeating B band.
    Its block size is s exactly when every override (i, j) has i + j <= s + 1,
    and None otherwise, with no check run: the entries follow the block
    pattern, so (1) holds, and the bands have period s, so (2) fails exactly
    at an override with i + j >= s + 2, as in :func:`choose_block_size`
    (which then picks 2s).
    """
    field, s = w.field, w.s
    blocks = (w.a, w.b, w.c)  # at block shifts -1, 0 and 1
    bands = {}
    for r in range(-(2 * s - 1), 2 * s):
        values = []
        for a0 in range(s):  # a0 = (i - 1) mod s
            shift, c0 = divmod(a0 + r, s)
            values.append(blocks[shift + 1][a0][c0] if -1 <= shift <= 1 else field.zero)
        if any(v != field.zero for v in values):
            bands[r] = values
    exceptional = []
    for i in range(1, s + 1):
        for j in range(1, s + 1):
            if w.d[i - 1][j - 1] != w.b[i - 1][j - 1]:
                exceptional.append((i, j, w.d[i - 1][j - 1]))
    fits = all(i + j <= s + 1 for i, j, _ in exceptional)
    return BandedSpec(field, s, bands, exceptional, s if fits else None)
