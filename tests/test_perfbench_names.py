"""The benchmark tracer wraps package functions by name; every name must resolve.

``perfbench/tracer.py`` lists each wrapped function as a (module, attribute
path) pair.  A refactor that renames or deletes one breaks the traced
benchmark run, so resolve them all here against the imported package.  The
tracer file is only read, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables():
    tree = ast.parse(TRACER.read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                found[name] = ast.literal_eval(node.value)
    return found


def _targets():
    tables = _tables()
    out = [
        (metric, module, path) for metric, (module, path) in tables["SPANNED"].items()
    ]
    for metric, (module, paths) in tables["COUNTED"].items():
        out.extend((metric, module, path) for path in paths)
    return out


def test_tracer_lists_both_tables():
    tables = _tables()
    assert tables.keys() == {"SPANNED", "COUNTED"}
    assert "laurent.accumulate" in tables["SPANNED"]


@pytest.mark.parametrize("metric,module,path", _targets())
def test_traced_name_resolves(metric, module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{metric}: {module}.{path} is missing"
        owner = getattr(owner, attr)
    assert callable(owner), f"{metric}: {module}.{path} is not callable"
