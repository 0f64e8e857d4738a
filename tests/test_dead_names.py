"""Every module-level name and method of the package is used by the package
itself or by the acceptance suite, and every module-level import is read by
its own module.  A name that only unit tests reach is not part of the
program.  Every field declared in a class body is read as an attribute
somewhere in the package or its tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pjac"


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {n for n in names if not _dunder(n)}


def _methods(tree: ast.Module) -> set[str]:
    """Functions and properties defined directly in a module-level class body."""
    return {
        f"{cls.name}.{node.name}"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(node.name)
    }


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _referenced(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in a file."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _package_trees_and_used_names():
    files = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used = set().union(*(_referenced(tree) for tree in trees.values()))
    return {path: tree for path, tree in trees.items() if path.parent == PACKAGE}, used


def test_no_module_level_name_is_dead():
    package, used = _package_trees_and_used_names()
    dead = sorted(
        f"{path.name}:{name}" for path, tree in package.items() for name in _defined(tree) - used
    )
    assert not dead, f"defined but never referenced: {dead}"


def test_no_method_is_dead():
    package, used = _package_trees_and_used_names()
    dead = sorted(
        f"{path.name}:{name}" for path, tree in package.items() for name in _methods(tree)
        if name.split(".")[1] not in used
    )
    assert not dead, f"defined but never referenced: {dead}"


def _imported(tree: ast.Module) -> set[str]:
    """Names bound by module-level imports, except ``from __future__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _names_read(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }


def test_no_import_is_unused():
    package, _ = _package_trees_and_used_names()
    unused = sorted(
        f"{path.name}:{name}" for path, tree in package.items()
        for name in _imported(tree) - _names_read(tree)
    )
    assert not unused, f"imported but never read: {unused}"


def _fields(tree: ast.Module) -> set[str]:
    """Annotated names declared directly in a module-level class body."""
    return {
        f"{cls.name}.{node.target.id}"
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def _attributes_loaded(tree: ast.Module) -> set[str]:
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_no_field_is_unread():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    read = set().union(*(_attributes_loaded(ast.parse(path.read_text(), filename=str(path)))
                         for path in files))
    unread = sorted(
        f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
        for name in _fields(ast.parse(path.read_text(), filename=str(path)))
        if name.split(".")[1] not in read
    )
    assert not unread, f"declared but never read: {unread}"
