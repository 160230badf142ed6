"""The package imports nothing outside the standard library.

Every absolute import in src/monotile is parsed, including imports inside
functions, and its top-level package must be a standard-library module.
Relative imports stay inside the package and are not checked.

No module imports dataclasses either: each CLI command runs in its own
process and pays the package import first, and the dataclasses import and
its generated methods cost about a third of that import.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "monotile"


def absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library(path):
    outside = [
        name for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in [name.split(".")[0] for name in absolute_imports(path)]


def test_cli_import_loads_no_dataclasses():
    # -S: no site module, so nothing but the package's own imports loads it
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import monotile.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", script, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
