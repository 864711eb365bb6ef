"""Package modules use each other only through public names."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "panoptic4d"


def private_imports(path: Path) -> list[str]:
    """'line N: module.name' for every _private name path imports from
    another package module, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "panoptic4d":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"line {node.lineno}: {module}.{alias.name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = {p.name: private_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_private_imports_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .inference import _flat, run_sequence\n"
        "from panoptic4d.metrics import _helper\n"
        "from numpy import _private_but_foreign\n"
        "from . import __version__\n"
    )
    assert private_imports(src) == ["line 1: inference._flat", "line 2: panoptic4d.metrics._helper"]
