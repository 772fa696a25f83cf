"""Every weylkit error class is raised somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "weylkit"


def error_classes(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}


def raised_names(path: Path) -> set[str]:
    """Names that ``raise X``, ``raise X(...)`` or ``raise mod.X(...)`` in ``path`` raise."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_class_is_raised():
    raised = set().union(*(raised_names(path) for path in SRC.glob("*.py")))
    assert error_classes(SRC / "errors.py") - {"WeylkitError"} - raised == set()


def test_raised_names_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from . import errors\n"
        "raise A\n"
        "raise B('text') from None\n"
        "raise errors.C(1)\n"
        "try:\n    pass\nexcept D:\n    raise\n"
    )
    assert raised_names(path) == {"A", "B", "C"}
