"""Which matrix product each layer uses, read from the sources.

``MatrixSeries`` multiplies through ``matrices.sum_of_products``, the
fixed-point route through its own per-entry convolutions, and the Laurent
stream by row slices through the step weights' nonzero entries; the walk
passes and the walk table multiply flat blocks through (source, target, v)
triples that ``walks`` reads off the step weights' nonzero entries
(``_right_triples``, ``_left_triples``), and the identity suite's reference
step through triples of its own, built and looped over in ``identities``.  The dense ``matrices.mul`` is left to the brute-force walk
enumeration in ``tests/helpers.py``, the reference the oracle is pinned to.
The oracle and the reference step check the routes, so they must never share
their kernels.  The sources are parsed with ``ast``, never imported, so a
refactor that moves a layer onto another layer's product fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandedgf"
HELPERS = Path(__file__).resolve().parent / "helpers.py"


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
    assert not walks & {"sum_of_products", "cm.mul"}
    # The brute-force enumeration the tests pin the oracle to multiplies
    # walk weights with the dense product, which neither the oracle nor a
    # block route uses.
    reference = _reached(ast.parse(HELPERS.read_text()), ["enumerate_sum"])
    assert "cm.mul" in reference
    # The suite's reference step multiplies through the step weights' nonzero
    # entries with its own loop: nothing of the stream it checks, nor of the
    # oracle's passes.
    step = _reached(_tree("identities"), ["_independent_step_multiply"])
    assert {"_row_stream", "_right_triples", "_left_triples"} <= _defined("laurent") | _defined("walks")
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
    assert {"_right_triples", "_left_triples", "reduce_all"} <= used


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
        assert {"_right_triples", "_left_triples", "_square", "_class_pass"} <= walks
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
    # How a step enters its values and when it reduces its column is the
    # field's column rule; the layer decides nothing from the field itself.
    assert "field.column_rule" in used
    assert not used & {"characteristic", "denominator", "p", "PrimeField", "RationalField"}


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
