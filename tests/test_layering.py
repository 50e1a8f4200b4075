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


def _callers(path, name):
    """The functions of the file whose bodies call name, by bare name or as
    an attribute; a call outside any function is listed as None."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_one_function_decides_the_form():
    """The form is built from the chart in one place, for verify, info and
    sample-line alike; build-omega prints the construction itself."""
    callers = {
        (path.name, function)
        for path in SRC.glob("*.py")
        for function in _callers(path, "build_omega")
    }
    assert callers == {("runner.py", "form_and_dimensions"), ("cli.py", "_cmd_build_omega")}
