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
from panoptic4d import cli, inference, kitti_io, model, pipeline, synth
from panoptic4d.config import desk_preset
from panoptic4d.sequence import save_sequence

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


def test_predictor_and_stitch_keep_the_call_shapes_the_benchmark_wraps(monkeypatch):
    """infer_dense's `timed` wraps the window predictor of
    `pipeline.model_predictor` with exactly three positional parameters, and
    the traced run's `on_stitch` reads `args[3]` of `inference.stitch` and
    unpacks its `(mapping, next_free_id)` result. Dropping the predictor's
    unused `frames` parameter would break every infer_dense run."""
    model_predictor, stitch = pipeline.model_predictor, inference.stitch
    windows, births = [], []

    def wrapped_predictor(model, cfg):
        predict = model_predictor(model, cfg)

        def timed(scans, poses, frames):
            windows.append(list(frames))
            return predict(scans, poses, frames)

        return timed

    def wrapped_stitch(*args):
        out = stitch(*args)
        mapping, next_free = out
        assert isinstance(mapping, dict) and isinstance(next_free, int)
        births.append(next_free - args[3])
        return out

    monkeypatch.setattr(pipeline, "model_predictor", wrapped_predictor)
    monkeypatch.setattr(inference, "stitch", wrapped_stitch)
    cfg = desk_preset(
        voxel_size=1.0, num_queries=6, dim=16, num_heads=2, num_rounds=1, ffn_width=24,
        num_frequencies=2, backbone_depth=2, backbone_widths=(8, 12), window=2, stride=1,
    )
    seq = synth.generate_sequence(
        synth.SceneSpec(seed=2, num_frames=3, points_per_object=30, points_per_stuff=60)
    )
    net = model.PanopticModel(cfg.model_config(), init_seed=0)
    pred = pipeline.predict_sequence(net, seq, cfg)
    assert windows == [[0, 1], [1, 2]] and len(births) == 2
    assert pred.frames == [0, 1, 2]


def test_eval_reads_every_label_inside_evaluate(tmp_path, monkeypatch):
    """eval_long's `metrics.evaluate` span wraps `cli.evaluate`, and the
    traced run covers an eval call only as far as spans do: a label read
    outside `evaluate` would count as uncovered time and pull eval_long's
    `trace.coverage` under the 0.95 the benchmark's own tests require."""
    seq = synth.generate_sequence(synth.SceneSpec(seed=2, num_frames=3))
    save_sequence(seq, str(tmp_path / "seq"))
    inside, reads = [], []
    evaluate, read_labels = cli.evaluate, kitti_io.read_labels

    def spied_evaluate(*args):
        inside.append(True)
        try:
            return evaluate(*args)
        finally:
            inside.pop()

    def spied_read_labels(*args, **kwargs):
        reads.append(bool(inside))
        return read_labels(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", spied_evaluate)
    monkeypatch.setattr(kitti_io, "read_labels", spied_read_labels)
    seq_dir = str(tmp_path / "seq")
    assert cli.main(["eval", "--pred", seq_dir, "--gt", seq_dir]) == 0
    assert reads == [True] * 6  # each of 3 frames, once per side


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
