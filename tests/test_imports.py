"""Every name a package module imports, and every private name it
defines, is used.

A name that a module of src/subminimal imports must be read in that
module, be listed in its ``__all__``, or be imported from that module by
another module of the package or of the tests, which is how a module
passes a name on (the filtration tests take SearchTimeout from
filtration). A private name that a module defines at its top level (a
``_name`` function, class or assignment) must be read outside its own
definition, in the package or the tests, as a name or an attribute. So
code deleted without the imports only it read, or a helper or constant
that a simplification left unused, fails here. And no module reads the
builtin ``id``: a formula hashes by identity, so a memo over formulas
keys by the node itself. Nor does any call but in syntax._ordered take
a ``key=`` that reads ``show``: a Sigma is put in one order once, at
entry, and nothing is then chosen as the least by its text.
"""

import ast
import collections
import pathlib

import subminimal

SRC = pathlib.Path(subminimal.__file__).parent
TESTS = pathlib.Path(__file__).parent


def _module(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST):
    """(module imported from, name, name bound) of each import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.module, alias.name, alias.asname or alias.name


def _exported(tree: ast.AST) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_read_exported_or_passed_on():
    trees = {p: ast.parse(p.read_text()) for p in [*SRC.rglob("*.py"), *TESTS.glob("*.py")]}
    passed_on = {(module, name) for tree in trees.values() for module, name, _ in _imports(tree)}
    unused = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _exported(tree)
        for _, name, bound in _imports(tree):
            if bound not in read and bound not in exported and (_module(path), bound) not in passed_on:
                unused.append(f"{_module(path)}: {name}")
    assert unused == []


def _private_definitions(tree: ast.Module):
    """(name, statement) of each private top-level def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _loads(node: ast.AST, kind: type, field: str) -> set[str]:
    """The names (kind ast.Name, field "id") or attributes (ast.Attribute,
    "attr") that node reads."""
    return {getattr(n, field) for n in ast.walk(node) if isinstance(n, kind) and isinstance(n.ctx, ast.Load)}


def test_every_private_definition_is_read_elsewhere():
    # read elsewhere: as an attribute anywhere, as a name by a module
    # that imports it from the defining one, or as a name in another
    # top-level statement of the defining module
    trees = {p: ast.parse(p.read_text()) for p in [*SRC.rglob("*.py"), *TESTS.glob("*.py")]}
    attributes = set().union(*(_loads(tree, ast.Attribute, "attr") for tree in trees.values()))
    imported = {
        (module, name)
        for tree in trees.values()
        for names in [_loads(tree, ast.Name, "id")]
        for module, name, bound in _imports(tree)
        if bound in names
    }
    unread = []
    for path, tree in trees.items():
        if SRC not in path.parents:
            continue
        module = _module(path)
        statements = [(node, _loads(node, ast.Name, "id")) for node in tree.body]
        for name, node in _private_definitions(tree):
            here = any(name in names for other, names in statements if other is not node)
            if not here and name not in attributes and (module, name) not in imported:
                unread.append(f"{module}: {name}")
    assert unread == []


def test_no_module_reads_the_builtin_id():
    # an id-keyed memo would have to keep its nodes alive beside it
    reads = [
        f"{_module(path)}:{node.lineno}"
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "id"
    ]
    assert reads == []


def _key_reads_of_show(path: pathlib.Path):
    """(top-level definition, line) of each call in the module whose
    key= argument reads the name show."""
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "key" and "show" in _loads(kw.value, ast.Name, "id"):
                        yield getattr(top, "name", None), node.lineno


def test_only_the_sigma_order_takes_a_least_by_show():
    # the one place a set's members are chosen by their text is the rule
    # that orders the maximal members of a set Sigma
    reads = [
        f"{path.name}:{line}"
        for path in SRC.rglob("*.py")
        for name, line in _key_reads_of_show(path)
        if (_module(path), name) != ("subminimal.syntax", "_ordered")
    ]
    assert reads == []
