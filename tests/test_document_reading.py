"""Which modules read input files, read from the sources.

Every input document is opened and parsed by ``cli._read_document``; the
library only decodes parsed documents, so one place turns bad files into
exit code 2.  The sources are parsed with ``ast``, never imported, so a
module that starts reading files itself fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bandedgf"
READERS = {"open", "json.load", "json.loads"}


def _readers_called(tree):
    """The file-reading calls under ``tree``, by name, and json imports of them."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                found.add(f"{func.value.id}.{func.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found.update(f"json.{alias.name}" for alias in node.names)
    return found & READERS


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_cli_reads_files(path):
    used = _readers_called(ast.parse(path.read_text()))
    if path.name == "cli.py":
        assert used == {"open", "json.load"}
    else:
        assert not used
