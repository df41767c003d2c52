"""Which matrix product each layer uses, read from the sources.

``MatrixSeries`` multiplies through ``matrices.sum_of_products``, the
fixed-point route through its own per-entry convolutions, and the Laurent
stream by row slices through the step weights' nonzero entries; the walk
enumeration uses the dense ``matrices.mul``, the walk passes and the walk
table their own product through the step weights' nonzero entries, and the
identity suite's reference step its own loop over those entries.  The
oracle and the reference step check the routes, so they must never share
their kernels.  The sources are parsed with ``ast``, never imported, so a
refactor that moves a layer onto another layer's product fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandedgf"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def _function(tree, name):
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _names(node):
    """Every name, attribute and imported name used under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
            if isinstance(sub.value, ast.Name):
                found.add(f"{sub.value.id}.{sub.attr}")
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def _defined(module):
    """The functions and classes defined at the top of ``module``."""
    return {
        node.name
        for node in _tree(module).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def test_the_oracle_never_uses_the_route_kernel():
    walks = _names(_tree("walks"))
    assert "sum_of_products" not in walks
    assert "cm.mul" in walks
    # The suite's reference step multiplies through the step weights' nonzero
    # entries with its own loop: nothing of the stream it checks, nor of the
    # oracle's passes.
    step = _reached(_tree("identities"), ["_independent_step_multiply"])
    assert {"_row_stream", "_add_left_product"} <= _defined("laurent") | _defined("walks")
    assert "sum_of_products" not in step
    assert not step & (_defined("laurent") | _defined("walks"))


def _reached(tree, names):
    """Every name used under the named functions of ``tree`` and under the
    functions of the same module that they call, transitively."""
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    todo, seen, used = list(names), set(), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            found = _names(functions[name])
            used |= found
            todo.extend(found & functions.keys())
    return used


def test_the_walk_passes_share_nothing_with_the_routes():
    used = _reached(_tree("walks"), ["_class_pass", "u_table"])
    routes = ("matseries", "engine", "laurent")
    route_names = set().union(*map(_defined, routes))
    assert "sum_of_products" not in used
    assert not used & (route_names | set(routes))
    assert {"_add_right_product", "_add_left_product"} <= used


@pytest.mark.parametrize("module", ["matseries", "laurent", "engine"])
def test_the_block_routes_never_use_the_dense_product(module):
    tree = _tree(module)
    used = _names(tree)
    assert "cm.mul" not in used
    if module == "engine":
        # The fixed-point route multiplies through its own per-entry
        # convolutions: no block product, and nothing of the oracle's.
        route = _reached(tree, ["fixed_point_route"])
        walks = {n.name for n in _tree("walks").body if isinstance(n, ast.FunctionDef)}
        assert {"_add_right_product", "_add_left_product", "_nonzeros", "_class_pass"} <= walks
        assert "cm.mul" not in route
        assert not route & walks
    elif module == "laurent":
        # The stream moves row slices through the step weights' nonzero
        # entries: no block product, and nothing of the oracle's or of the
        # identity suite's reference step.
        stream = _reached(tree, ["trimmed_powers", "accumulate"])
        assert "_independent_step_multiply" in _defined("identities")
        assert "_row_stream" in stream
        assert not stream & {"sum_of_products", "cm.mul"}
        assert not stream & (_defined("walks") | _defined("identities"))
    else:
        assert "sum_of_products" in used
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "matrices":
            assert "mul" not in {alias.name for alias in node.names}


def test_the_first_column_layer_stays_scalar():
    # The direct route and Section 5 share this layer; it must stay separate
    # from the block-matrix code the routes it checks are built on, and name
    # none of those routes.
    used = _names(_function(_tree("engine"), "corner_first_columns"))
    assert not used & {"sum_of_products", "cm.mul", "BlockWeights", "block_reduce"}
    assert not used & {"MatrixSeries", "accumulate", "class_sums", "fixed_point_route"}
    assert "reduce_all" in used


def test_no_module_imports_a_private_name_of_another():
    # A name one module shares with another is public: `from .x import _y`
    # reaches into x's internals, so a rewrite of x can break y unseen.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("bandedgf")
            ):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private} from {node.module}"


def test_only_fields_reads_the_kind_or_the_parts_of_a_scalar():
    # Clearing denominators and telling Q from F_p are the field layer's
    # rules (`fields.denominator`, `fields.cleared`, `Field.characteristic`);
    # a module that reads a scalar's parts or the field's kind restates them.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10 and SRC / "fields.py" in paths
    offenders = {}
    for path in paths:
        read = {
            node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
        }
        found = sorted(read & {"denominator", "numerator", "kind"})
        if found and path.name != "fields.py":
            offenders[path.name] = found
    assert not offenders
