"""The benchmark's hooks still find what they patch.

perfbench wraps package functions and methods by name (`wrap(owner,
"name", ...)`, `patch(owner, "name", ...)` and `owner.__dict__["name"]`).
A rename or an import move breaks the traced run; these tests read
`perfbench/workloads.py` as text, without importing or running it, and
resolve every such name in the package, and bind every call the workloads
make through a package module to the signature it calls. The traced run
also reads and patches tensor internals at run time, which the last tests
check.
"""

import ast
import importlib
import inspect
import os

from panoptic4d import autodiff as ad
from panoptic4d import model

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def workloads_tree() -> ast.Module:
    with open(WORKLOADS, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=WORKLOADS)


def package_aliases(tree: ast.Module) -> dict[str, object]:
    """Local name -> module for every `from panoptic4d import ...`."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "panoptic4d":
            for alias in node.names:
                module = importlib.import_module(f"panoptic4d.{alias.name}")
                aliases[alias.asname or alias.name] = module
    return aliases


def resolve(expr: ast.expr, aliases: dict[str, object]):
    """The package object an owner expression such as `optim.AdamW` names."""
    if isinstance(expr, ast.Name):
        return aliases[expr.id]
    if isinstance(expr, ast.Attribute):
        return getattr(resolve(expr.value, aliases), expr.attr)
    raise AssertionError(f"line {expr.lineno}: unsupported owner {ast.unparse(expr)}")


def hooked_names(tree: ast.Module) -> list[tuple[ast.expr, str]]:
    """(owner expression, attribute) of every wrap/patch call and every
    `owner.__dict__["name"]` lookup."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            attr = node.args[1]
            if name in ("wrap", "patch") and isinstance(attr, ast.Constant):
                found.append((node.args[0], attr.value))
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__dict__"
            and isinstance(node.slice, ast.Constant)
        ):
            found.append((node.value.value, node.slice.value))
    return found


def test_every_hooked_name_is_defined_on_its_owner():
    tree = workloads_tree()
    aliases = package_aliases(tree)
    hooks = hooked_names(tree)
    assert len(hooks) >= 30  # the traced run hooks about three dozen names
    for expr, attr in hooks:
        owner = resolve(expr, aliases)
        assert attr in owner.__dict__, f"line {expr.lineno}: {ast.unparse(expr)} has no {attr!r}"


def package_calls(tree: ast.Module, aliases: dict[str, object]) -> list[ast.Call]:
    """Every call made through a package module alias, such as
    `training.train_model(...)` or `model_mod.PanopticModel(...)`."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in aliases
    ]


def test_every_package_call_binds_to_its_signature():
    """Each call's positional count and keyword names fit the signature of
    the function or class it calls, so a renamed, added or removed
    parameter fails here rather than in a benchmark run."""
    tree = workloads_tree()
    aliases = package_aliases(tree)
    calls = package_calls(tree, aliases)
    assert len(calls) >= 17  # the workloads call about twenty package names
    for call in calls:
        target = resolve(call.func, aliases)
        assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
        assert all(k.arg is not None for k in call.keywords), ast.unparse(call)
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"line {call.lineno}: {ast.unparse(call)}: {exc}") from exc


def test_prepare_window_takes_three_positional_arguments():
    """train_desk's setup calls prepare_window(scans, poses, voxel_size)."""
    inspect.signature(model.prepare_window).bind([], [], 0.05)


def test_parents_is_truthy_only_for_a_recorded_tensor():
    """`traced_matmul` counts a recorded product's backward from `out._parents`."""
    x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
    assert ad.matmul(x, ad.Tensor([[1.0], [3.0]]))._parents
    with ad.no_grad():
        assert ad.matmul(x, ad.Tensor([[1.0], [3.0]]))._parents == ()
    assert x._parents == ()


def test_tensor_init_can_be_patched():
    """The traced run counts tape nodes by wrapping `Tensor.__dict__["__init__"]`."""
    original = ad.Tensor.__dict__["__init__"]
    made = []

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        made.append(self)

    ad.Tensor.__init__ = init
    try:
        out = ad.add(ad.Tensor(1.0, requires_grad=True), 2.0)
    finally:
        ad.Tensor.__init__ = original
    assert len(made) == 3 and made[-1] is out
    assert ad.Tensor.__dict__["__init__"] is original
