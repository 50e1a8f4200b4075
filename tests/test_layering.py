"""Each metaline module reaches another only through its public names, and
only scalars.py reaches the Fraction backend."""

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


# Fraction APIs that gmpy2's mpq, the other scalar backend, lacks.
_FRACTION_ONLY = frozenset(("_from_coprime_ints", "limit_denominator"))


def _fraction_uses(path):
    """Each import of the fractions module and each attribute the file
    reads from _FRACTION_ONLY."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "fractions":
                found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr in _FRACTION_ONLY:
            found.append(node.attr)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_scalars_reaches_the_fraction_backend(path):
    """Only scalars.py imports fractions, and no module calls an API that
    only Fraction has, so every kernel runs on either backend's Q."""
    expected = ["fractions"] if path.name == "scalars.py" else []
    assert _fraction_uses(path) == expected
