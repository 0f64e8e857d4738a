"""Every module-level name of the package is used somewhere in src/ or tests/."""

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
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


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


def test_no_module_level_name_is_dead():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    used = set().union(*(_referenced(tree) for tree in trees.values()))
    dead = sorted(
        f"{path.name}:{name}"
        for path, tree in trees.items() if path.parent == PACKAGE
        for name in _defined(tree) - used
    )
    assert not dead, f"defined but never referenced: {dead}"
