"""Every module-level function, class and constant of the package, and
every private method, is read somewhere in `src/`, `tests/` or `bench/`
outside its own definition.

A static check on the syntax trees, like `test_imports`: a name counts as
read where code loads it, as a name or an attribute, or imports it. Names
are matched by spelling alone, so two definitions that share a name are
read together. Dunders and `__all__` are exempt."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "btcstate").rglob("*.py"))
READERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """Each module-level function, class and assigned name, and each
    private method of a module-level class, with its defining statement."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, node) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (method.name, method)
                for method in node.body
                if isinstance(method, ast.FunctionDef)
                and method.name.startswith("_")
                and not is_dunder(method.name)
            )
    return [(name, node) for name, node in found if not is_dunder(name)]


@cache
def reads() -> dict[str, list[tuple[Path, int]]]:
    """Every name loaded or imported in the readers, with where."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            else:
                continue
            found.setdefault(name, []).append((path, node.lineno))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_definitions_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [
        f"{name} (line {node.lineno})"
        for name, node in definitions(tree)
        if all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in reads().get(name, ())
        )
    ]
    assert not unread, f"{path.name} defines names nothing reads: {', '.join(unread)}"
