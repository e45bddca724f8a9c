"""Every module-level import of the package is used in its module."""
import ast

import pytest

from helpers import REPO_ROOT

MODULES = sorted(path for path in (REPO_ROOT / "src" / "bcconf").glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """The name each module-level import binds, with its line; ``from __future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"
