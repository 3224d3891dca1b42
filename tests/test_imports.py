"""Every name a package module imports is used.

A name that a module of src/subminimal imports must be read in that
module, be listed in its ``__all__``, or be imported from that module by
another module of the package or of the tests, which is how a module
passes a name on (the filtration tests take SearchTimeout from
filtration). So code deleted without the imports only it read fails
here.
"""

import ast
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
