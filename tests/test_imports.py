"""Import hygiene of the package, read off each module's syntax tree:
every imported name is used, every import is the standard library or
soficert itself, and every top-level function and class is used by the
package or its scripts."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soficert"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# the union-find witness of ROADMAP item 2 replaces combine_orbits
UNREFERENCED_ALLOWED = {"combine_orbits"}


def imports(tree):
    """(import node, name it binds) for every import but ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


# the package module imports names to re-export them
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for _, name in imports(tree) if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_soficert(path):
    tree = ast.parse(path.read_text())
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        foreign += [m for m in modules
                    if m.split(".")[0] not in sys.stdlib_module_names | {"soficert"}]
    assert foreign == []


def referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_top_level_definition_is_referenced():
    # a re-export from __init__.py or a use in a test is not a use
    statements = [(node, set(referenced_names(node)))
                  for path in MODULES + SCRIPTS if path.name != "__init__.py"
                  for node in ast.parse(path.read_text()).body]
    unreferenced = [
        node.name for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in UNREFERENCED_ALLOWED
        and not any(node.name in names for other, names in statements if other is not node)
    ]
    assert unreferenced == []
