"""Package modules use each other only through public names, and import
only at module level."""

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


def _type_checking_block(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def function_imports(path: Path) -> list[str]:
    """'line N' for every import statement inside a function body of path,
    outside `if TYPE_CHECKING:` blocks."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if _type_checking_block(node):
            return
        if in_function and isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(f"line {node.lineno}")
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


def test_no_function_body_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = {p.name: function_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_function_imports_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import os\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .model import ModelConfig\n"
        "def f():\n"
        "    import json\n"
        "    if TYPE_CHECKING:\n"
        "        from .heads import Targets\n"
        "    class Inner:\n"
        "        def g(self):\n"
        "            from . import heads\n"
        "class C:\n"
        "    async def h(self):\n"
        "        if True:\n"
        "            from .autodiff import no_grad\n"
    )
    assert function_imports(src) == ["line 6", "line 11", "line 15"]


def unused_imports(path: Path) -> list[str]:
    """'line N: name' for every name path imports and never uses: no
    ast.Name of it (an attribute chain starts with one) and no entry in
    `__all__`. `from __future__` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        targets = getattr(node, "targets", [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used.update(elt.value for elt in node.value.elts)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"line {node.lineno}: {name}")
    return found


def test_every_imported_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = {p.name: unused_imports(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_unused_imports_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .errors import ContractError, ParameterError\n"
        "from .geometry import Pose\n"
        "from . import heads\n"
        "__all__ = ['Pose']\n"
        "def f(x: np.ndarray) -> None:\n"
        "    raise ParameterError(heads.name)\n"
    )
    assert unused_imports(src) == ["line 2: os", "line 4: ContractError"]


def unused_private_names(path: Path) -> list[str]:
    """'line N: name' for every _private function, class or constant path
    defines at module level and never reads: no ast.Name load of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [
                name.id
                for target in targets
                if target is not None
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        for name in names:
            if name.startswith("_") and not name.startswith("__") and name not in read:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_every_private_name_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    offenders = {p.name: unused_private_names(p) for p in modules}
    assert {name: found for name, found in offenders.items() if found} == {}


def test_unused_private_names_are_found(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "import numpy as np\n"
        "_USED = 1\n"
        "_STALE: int = 2\n"
        "_a, _b = 3, 4\n"
        "__version__ = '1'\n"
        "def _pack(major, minor):\n"
        "    return major * 2 + minor\n"
        "def _helper():\n"
        "    return _helper_of_helper() + _USED + _a\n"
        "def _helper_of_helper():\n"
        "    return 0\n"
        "class _Tally:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper()\n"
    )
    assert unused_private_names(src) == [
        "line 3: _STALE", "line 4: _b", "line 6: _pack", "line 12: _Tally",
    ]
