"""The benchmark reads package functions by name; every name must resolve.

``perfbench/tracer.py`` lists each wrapped function as a (module, attribute
path) pair, and ``perfbench/sweep.py`` reads ``bg.<name>`` off the package
that ``perfbench/run.py`` imports (``bandedgf``, after ``bandedgf.cli`` and
``bandedgf.fixtures``).  A refactor that renames or deletes one breaks the
traced benchmark run, so resolve them all here against the imported package.
Both files are only read, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SWEEP = PERFBENCH / "sweep.py"


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


def _dotted(node):
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _sweep_paths():
    """Every longest ``bg.<path>`` chain in sweep.py, without the ``bg.``."""
    chains = {_dotted(node) for node in ast.walk(ast.parse(SWEEP.read_text()))}
    paths = {c[len("bg."):] for c in chains if c and c.startswith("bg.")}
    return sorted(p for p in paths if not any(q.startswith(p + ".") for q in paths))


def test_sweep_reads_the_package_names():
    tops = {path.split(".")[0] for path in _sweep_paths()}
    assert {"fixtures", "class_sums", "u_table", "symbol_determinant"} <= tops


@pytest.mark.parametrize("path", _sweep_paths())
def test_sweep_name_resolves(path):
    owner = importlib.import_module("bandedgf")
    importlib.import_module("bandedgf.cli")
    importlib.import_module("bandedgf.fixtures")
    for attr in path.split("."):
        assert hasattr(owner, attr), f"sweep.py: bg.{path} is missing"
        owner = getattr(owner, attr)
