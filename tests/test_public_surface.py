"""Every public module-level function or class of the package has a user.

A name defined at the top level of a module in src/monotile without a
leading underscore must be exported from the package's __init__, referenced
somewhere in src/monotile outside its own definition, or named in README.md
or pyproject.toml.  Helpers that only the tests call belong in
tests/oracles.py.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "monotile"
DOCS = (ROOT / "README.md").read_text() + (ROOT / "pyproject.toml").read_text()
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def used_names(tree: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def public_definitions() -> list[tuple[str, str, set[str]]]:
    """(module file, name, names the rest of src/ uses) per public top-level
    function or class; __init__'s imports count as uses."""
    nodes = [
        (path.name, node, used_names(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    return [
        (module, node.name, set().union(*(uses for _, other, uses in nodes if other is not node)))
        for module, node, _ in nodes
        if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
    ]


@pytest.mark.parametrize(
    "module, name, elsewhere",
    [pytest.param(*entry, id=f"{entry[0][:-3]}.{entry[1]}") for entry in public_definitions()],
)
def test_public_name_has_a_user(module, name, elsewhere):
    named = re.search(rf"\b{re.escape(name)}\b", DOCS) is not None
    assert name in elsewhere or named, (
        f"{module} defines {name}, which nothing in src/ uses and README.md and "
        "pyproject.toml do not name; move it to tests/oracles.py or delete it"
    )
