"""Module boundaries inside the package: a module reaches a sibling only
through the sibling's public names, and imports no name it does not use."""

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


def _unused_imports(path: Path) -> list[str]:
    """Each name the module at path imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_module_keeps_an_unused_import():
    found = [line for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py" for line in _unused_imports(path)]
    assert found == []
