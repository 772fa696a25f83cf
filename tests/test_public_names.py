"""weylkit's modules use only each other's public names."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylkit"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _weylkit_module(module: str | None, level: int) -> str | None:
    """The weylkit module an import names (``.m`` or ``weylkit.m``), else None."""
    if level == 1:
        return module or ""
    if module == "weylkit" or (module or "").startswith("weylkit."):
        return module.removeprefix("weylkit").lstrip(".")
    return None


def private_imports(path: Path) -> list[str]:
    """Underscore names ``path`` takes from another weylkit module."""
    tree = ast.parse(path.read_text(), str(path))
    aliases: dict[str, str] = {}  # local name -> imported weylkit module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _weylkit_module(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in MODULES:  # from . import linalg
                    aliases[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("weylkit.") and alias.asname:
                    aliases[alias.asname] = alias.name.removeprefix("weylkit.")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{aliases[node.value.id]}.{node.attr}")
    return found


def test_no_module_imports_a_private_name_of_another():
    offenders = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_private_imports_sees_both_forms(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from . import linalg, localization as loc\n"
        "from .quadratic import _relation_rows, pairing\n"
        "from weylkit.pbw import _redexes\n"
        "linalg._eliminate([], 0)\n"
        "loc.theta\n"
        "linalg.__name__\n"
    )
    assert sorted(private_imports(path)) == [
        "linalg._eliminate",
        "pbw._redexes",
        "quadratic._relation_rows",
    ]
