"""Each metaline module reaches another only through its public names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "metaline"


def _private_imports(path):
    """(module, name) for each underscore name the file imports from
    another metaline module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "metaline":
            continue
        found += [(module, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert _private_imports(path) == []
