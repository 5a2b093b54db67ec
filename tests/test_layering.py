"""Module boundaries inside the package: a module reaches a sibling only
through the sibling's public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermosig"


def _private_imports(path: Path) -> list[str]:
    """Each `from <sibling> import _name` in the module at path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "thermosig":
            continue
        source = "." * node.level + module
        found += [f"{path.name}: from {source} import {alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_package_modules_are_found():
    assert {"cli.py", "ingest.py", "synth.py"} <= {path.name for path in PACKAGE.glob("*.py")}


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _private_imports(path)]
    assert found == []
