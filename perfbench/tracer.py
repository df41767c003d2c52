"""Outside-in tracer: wraps bandedgf's public functions from the benchmark.

Nothing inside the package changes.  ``install`` replaces each listed
function, in every loaded ``bandedgf`` module that binds it by name (the
``from .engine import fixed_point_route`` copies in ``cli``, ``fixtures``,
``identities``, ``section5`` and the package itself), by a wrapper that
records a span.  A second list of hot functions only counts calls, which
costs less than a span.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# metric prefix -> (defining module, attribute path); each call is a span.
SPANNED = {
    "cli.main": ("bandedgf.cli", "main"),
    "banded.block_reduce": ("bandedgf.banded", "block_reduce"),
    "engine.cross_check": ("bandedgf.engine", "cross_check"),
    "engine.direct_route": ("bandedgf.engine", "direct_route"),
    "engine.fixed_point_route": ("bandedgf.engine", "fixed_point_route"),
    "engine.laurent_route": ("bandedgf.engine", "laurent_route"),
    "engine.symbol_determinant": ("bandedgf.engine", "symbol_determinant"),
    "laurent.accumulate": ("bandedgf.laurent", "accumulate"),
    "walks.class_sums": ("bandedgf.walks", "class_sums"),
    "walks.u_table": ("bandedgf.walks", "u_table"),
    "matseries.mul": ("bandedgf.matseries", "MatrixSeries.__mul__"),
    "matseries.inverse": ("bandedgf.matseries", "MatrixSeries.inverse"),
    "section5.weighted_series": ("bandedgf.section5", "weighted_series"),
    "section5.affine_pipeline": ("bandedgf.section5", "affine_pipeline"),
    "annihilator.reconstruct": ("bandedgf.annihilator", "reconstruct"),
    "annihilator.verify": ("bandedgf.annihilator", "verify"),
    "identities.run_identity_suite": ("bandedgf.identities", "run_identity_suite"),
    "identities.oracle_comparison": ("bandedgf.identities", "oracle_comparison"),
    "fixtures.run_checks": ("bandedgf.fixtures", "run_checks"),
}

# metric prefix -> attribute paths whose calls are only counted.
COUNTED = {
    "matrices.mul": ("bandedgf.matrices", ("mul",)),
    "series.mul": ("bandedgf.series", ("Series.__mul__",)),
    "fields.reduce": ("bandedgf.fields", ("RationalField.reduce", "PrimeField.reduce")),
}


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans (name, start, end, parent, job) and call counts."""

    def __init__(self):
        self.spans = []  # [span id, parent id, name, job, start, end]
        self.counts = {name: 0 for name in COUNTED}
        self.job = None
        self._stack = [None]
        self._undo = []

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1], name, self.job, perf_counter(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, owner, attr, original, wrapper):
        """Point every binding of ``original`` in the package at ``wrapper``."""
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bandedgf" or mod_name.startswith("bandedgf.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def install(self):
        for name, (module_name, path) in SPANNED.items():
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            self._rebind(owner, attr, original, self._span_wrapper(name, original))
        for name, (module_name, paths) in COUNTED.items():
            for path in paths:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                self._rebind(owner, attr, original, self._count_wrapper(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def layer_totals(self):
        """Per span name: calls, inclusive time, and self time (minus child spans)."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPANNED}
        for sid, _, name, _, start, end in self.spans:
            tot = out[name]
            tot["calls"] += 1
            tot["total_s"] += end - start
            tot["self_s"] += end - start - child[sid]
        return out

    def write(self, path):
        """Write every span and count as one JSON document."""
        keys = ("id", "parent", "name", "job", "start", "end")
        doc = {
            "spans": [dict(zip(keys, rec)) for rec in self.spans],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
