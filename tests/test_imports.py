"""Every module-level import, and every module-level private name, of the package is read in its module."""
import ast

import pytest

from helpers import REPO_ROOT

MODULES = sorted(path for path in (REPO_ROOT / "src" / "bcconf").glob("*.py") if path.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_read(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def imported_names(tree):
    """The name each module-level import binds, with its line; ``from __future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)


def private_names(tree):
    """Each module-level function, class or constant named ``_name`` (no dunder), with its line."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node.lineno) for name in bound if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_import_is_used(path):
    tree = parse(path)
    used = names_read(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_private_name_is_read(path):
    tree = parse(path)
    used = names_read(tree)
    dead = [f"{name} (line {line})" for name, line in private_names(tree) if name not in used]
    assert dead == [], f"{path.name} defines private names it never reads"
