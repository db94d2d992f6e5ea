"""Every module of the package and of the tests uses each name it imports.

A static check on the syntax tree, so it needs no linter: a name bound by
an import must be read somewhere in the module, in code, in an annotation
(quoted or not) or in `__all__`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "btcstate").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those in quoted annotations
    and the strings listed in `__all__`."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(read_names(ast.parse(node.value, mode="eval")))
    return read


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = read_names(tree)
    unused = [
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"
