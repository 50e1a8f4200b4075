"""Each metaline module reaches another only through its public names, every
public name and every private function is reached from src/, only
scalars.py reaches the Fraction backend, only the runner and the CLI draw
samples, and no function writes to module-level state."""

import ast
from collections import Counter
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


def test_the_package_root_imports_nothing():
    """The root exports no name: every caller imports from a submodule."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert imports == []


def _drawing_methods():
    """The public methods of RationalSampler that draw: all but derive,
    which only names a stream."""
    tree = ast.parse((SRC / "sampling.py").read_text())
    [sampler] = [n for n in tree.body if getattr(n, "name", None) == "RationalSampler"]
    methods = {n.name for n in sampler.body if isinstance(n, ast.FunctionDef)}
    return {m for m in methods if not m.startswith("_")} - {"derive"}


def test_only_the_runner_and_the_cli_draw_samples():
    """Every sample loop is the runner's (or the CLI's, for sample-line):
    no other module calls a sampler's drawing methods, so a kernel takes
    its sample point as arguments."""
    draws = _drawing_methods()
    drawing = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in draws
    }
    assert drawing == {"runner.py", "cli.py", "sampling.py"}


# Methods that change a list, dict or set in place.
_MUTATORS = frozenset(
    ("append", "extend", "insert", "update", "add", "setdefault", "pop", "clear", "remove")
)


def _module_names(tree):
    """The names bound at the module's top level, outside its functions and
    classes: assigned, imported, defined."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                names.add(n.id)
            elif isinstance(n, ast.alias):
                names.add((n.asname or n.name).split(".")[0])
    return names


def _root(node):
    """The name an attribute or subscript chain starts from, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _written(target):
    """The names whose objects an assignment or deletion target writes into."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _written(elt)]
    if isinstance(target, ast.Starred):
        return _written(target.value)
    return [_root(target)] if isinstance(target, (ast.Attribute, ast.Subscript)) else []


def _module_state_writes(tree):
    """(function, name) for each write by a top-level function or method to
    a module-level name that it does not bind itself: a global statement,
    an item or attribute assignment or deletion, or a mutating call."""
    module = _module_names(tree)
    functions = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = set()
    for function in functions:
        nodes = list(ast.walk(function))
        local = {n.arg for n in nodes if isinstance(n, ast.arg)}
        local |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        written = []
        for node in nodes:
            if isinstance(node, ast.Global):
                found.update((function.name, name) for name in node.names)
            elif isinstance(node, (ast.Assign, ast.Delete)):
                written += [name for target in node.targets for name in _written(target)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                written += _written(node.target)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in _MUTATORS:
                written.append(_root(node.func.value))
        found.update((function.name, n) for n in written if n in module and n not in local)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_writes_module_state(path):
    """A function gets its state as arguments: none writes to a name bound
    at module level, so a --jobs worker needs no initializer to run one."""
    assert _module_state_writes(ast.parse(path.read_text(), filename=str(path))) == []


# perfbench/tracer.py reads OmegaConstruction.rank_history, which nothing in
# src/ reads, so it stays until the benchmark stops reading it.
_UNREACHED_BY_DESIGN = ["omega_builder.py OmegaConstruction.rank_history"]


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _is_dataclass(node):
    return any(
        getattr(getattr(d, "func", d), "id", None) == "dataclass" for d in node.decorator_list
    )


def _public_fields(tree):
    """Qualified name and name of each public field of each public dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and not sub.target.id.startswith("_"):
                    yield f"{node.name}.{sub.target.id}", sub.target.id


def _attribute_reads(tree):
    """Each attribute name the tree reads (obj.name in a load)."""
    loads = (n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load))
    return {n.attr for n in loads if isinstance(n, ast.Attribute)}


def _names(node):
    """Each name read inside node, as a bare name, an attribute or an
    imported name, counted once per occurrence."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


# Public dataclass fields whose name another src/ class also defines, so a
# read of that name does not tell which class it reads.  Each was checked
# to be read on its own class, at the site named.
_SHARED_FIELDS_READ = {
    "compactification.py BoundaryPoint.param",  # runner: fiber.param
    "family_geometry.py SlideCheckResult.residual",  # runner: result.residual
    "lines.py HorizontalLine.base",  # lines: line.base
    "lines.py HorizontalLine.direction",  # lines: line.direction
    "lines.py HorizontalLine.param",  # compactification: point.param
    "lines.py TangentDirectionPoint.base",  # lines.line_of: alpha.base
    "lines.py TangentDirectionPoint.direction",  # lines.line_of: alpha.direction
    "lines.py TangentDirectionPoint.param",  # lines.line_of: alpha.param
    "omega_builder.py OmegaConstruction.omega",  # cli: construction.omega
    "report.py CheckResult.samples",  # report: c.samples
    "report.py CheckResult.witness",  # report: c.witness
    "report.py VerificationReport.dims",  # report: self.dims
    "report.py VerificationReport.label",  # report: self.label
    "report.py VerificationReport.samples",  # report: self.samples
    "report.py VerificationReport.seed",  # report: self.seed
    "varieties.py IsotropyCertificate.witness",  # runner: cert.witness
    "varieties.py VarietyChart.coords",  # family_geometry: chart.coords
    "varieties.py VarietyChart.label",  # cli: chart.label
}


def _shared_fields(trees):
    """Each public dataclass field, as "module Class.field", whose name
    another class in src/ also defines."""
    classes = [
        (f"{name} {node.name}", _class_attributes(node))
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    ]
    return {
        f"{name} {qualified}"
        for name, tree in trees.items()
        for qualified, field in _public_fields(tree)
        if any(
            field in names and owner != f"{name} {qualified.split('.')[0]}"
            for owner, names in classes
        )
    }


def test_every_public_name_is_reached_from_src():
    """A public function, class or method that only tests reach is not
    kept: some module in src/ names it outside its own definition.  Nor
    is a public dataclass field that no module in src/ reads as an
    attribute.  A read is matched by name, whatever the object, so a
    field whose name another class defines counts as read only when
    _SHARED_FIELDS_READ lists it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    read = set().union(*map(_attribute_reads, trees.values()))
    shared = _shared_fields(trees)
    unreached = [
        f"{name} {qualified}"
        for name, tree in trees.items()
        for qualified, node in _public_definitions(tree)
        if everywhere[node.name] == _names(node)[node.name]
    ]
    fields = [
        (f"{name} {qualified}", field)
        for name, tree in trees.items()
        for qualified, field in _public_fields(tree)
    ]
    unreached += [
        key for key, field in fields if field not in read or key in shared - _SHARED_FIELDS_READ
    ]
    assert sorted(unreached) == _UNREACHED_BY_DESIGN
    assert _SHARED_FIELDS_READ <= shared


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_functions(tree):
    """(qualified name, node) of each private top-level function and of
    each private method of a top-level class; dunders are not private."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _is_private(node.name):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and _is_private(sub.name):
                    yield f"{node.name}.{sub.name}", sub


def test_every_private_function_is_reached_from_src():
    """A private helper is no test-only kernel either: some module in src/
    names each private function and method outside its own definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    unreached = [
        f"{name} {qualified}"
        for name, tree in trees.items()
        for qualified, node in _private_functions(tree)
        if everywhere[node.name] == _names(node)[node.name]
    ]
    assert unreached == []


def _class_attributes(cls):
    """The names a class defines: its methods, the names its body assigns,
    and each attribute its methods assign on self."""
    names = {n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in cls.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if getattr(node.value, "id", None) == "self":
                names.add(node.attr)
    return names


def _foreign_private_reads(tree):
    """(function, name.attribute) for each private attribute read on a name
    other than self or cls outside the methods of a class defining it."""
    found = []

    def visit(node, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = _class_attributes(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id not in ("self", "cls")
            and node.attr not in owner
        ):
            found.append((function, f"{node.value.id}.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    visit(tree, set(), None)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_attributes_are_read_by_their_own_class(path):
    """An underscore attribute is read on another object only inside a
    method of a class that defines it (as OmegaForm reads other._key()),
    so a private table or helper has one reader: its own class."""
    assert _foreign_private_reads(ast.parse(path.read_text(), filename=str(path))) == []


def _unused_imports(tree):
    """Each name the module imports that it never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize(
    "path",
    sorted([*SRC.glob("*.py"), *Path(__file__).resolve().parent.glob("*.py")]),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []
