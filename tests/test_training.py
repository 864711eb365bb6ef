import dataclasses
import inspect
import itertools
import tracemalloc

import numpy as np
import pytest

import panoptic4d.autodiff as ad
from panoptic4d import training
from panoptic4d.config import desk_preset
from panoptic4d.errors import (
    CapacityError,
    EmptyInstanceError,
    FormatError,
    InvalidPoseError,
    ParameterError,
)
from panoptic4d.geometry import LidarScan, Pose
from panoptic4d.heads import hungarian_match, total_loss
from panoptic4d.model import PanopticModel, prepare_window
from panoptic4d.optim import AdamW, load_checkpoint, save_checkpoint
from panoptic4d.sequence import ScanSequence, sequence_windows, window_starts
from panoptic4d.synth import SceneSpec, generate_sequence
from panoptic4d.training import (
    TrainingDiverged,
    augmentation,
    load_model,
    save_model,
    train_model,
)

from oracles import _augmented_window


def tiny_cfg(**over):
    base = dict(
        voxel_size=1.0,
        num_queries=6,
        dim=16,
        num_heads=2,
        num_rounds=1,
        ffn_width=24,
        num_frequencies=2,
        backbone_depth=2,
        backbone_widths=(8, 12),
        steps=5,
        max_lr=1e-3,
    )
    base.update(over)
    return desk_preset(**base)


@pytest.fixture(scope="module")
def tiny_seq():
    return generate_sequence(
        SceneSpec(seed=1, num_frames=3, num_thing_objects=2, points_per_object=40, points_per_stuff=80)
    )


@pytest.fixture(scope="module")
def crowded_late_seq():
    """Six frames whose objects 3-5 appear only in the last two: the
    windows (0, 1) and (2, 3) hold 4 segments, the window (4, 5) holds 7."""
    return generate_sequence(
        SceneSpec(
            seed=2,
            num_frames=6,
            num_thing_objects=5,
            points_per_object=30,
            points_per_stuff=60,
            hidden=tuple((i, f) for i in (3, 4, 5) for f in range(4)),
        )
    )


@pytest.mark.parametrize("augment", [False, True])
def test_too_many_targets_fail_when_the_window_is_built(crowded_late_seq, augment, monkeypatch):
    """A window with more segments than queries is a CapacityError naming
    its frames, raised by the pass that builds every window before step 0,
    with augmentation or without."""
    steps = []
    step = AdamW.step

    def counted(opt, lr=None):
        steps.append(lr)
        return step(opt, lr)

    monkeypatch.setattr(AdamW, "step", counted)
    cfg = tiny_cfg(num_queries=4, train_stride=2, steps=4, aug_translate=augment)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    with pytest.raises(CapacityError, match=r"window frames \[4, 5\]: 7 targets exceed 4 queries"):
        train_model(model, crowded_late_seq, cfg, log_every=0)
    assert steps == []


@pytest.fixture
def optimizer_steps(monkeypatch):
    """The learning rate of every AdamW step taken, in order."""
    steps = []
    step = AdamW.step

    def counted(opt, lr=None):
        steps.append(lr)
        return step(opt, lr)

    monkeypatch.setattr(AdamW, "step", counted)
    return steps


def capacity_scene() -> ScanSequence:
    """Two scans at identity poses: 200 class-3 stuff points on z = 0, 40
    points each of class-1 instances 1 and 2, and one class-2 point of
    instance 3 next to instance 1. At 0.8 m voxels that point wins no voxel
    at the identity, so counting voxel winners finds 3 targets, while a
    translation can give it a voxel of its own: 4 targets."""
    rng = np.random.default_rng(0)
    scans = []
    for frame in range(2):
        stuff = np.column_stack([rng.uniform(-10, 10, size=(200, 2)), np.zeros(200)])
        near = rng.normal((0.3, 0.3, 0.3), 0.005, size=(40, 3))
        far = rng.normal((-4.0, -3.0, 1.0), 0.3, size=(40, 3))
        points = np.concatenate([stuff, near, far, [[0.36, 0.3, 0.3]]])
        semantic = np.r_[np.full(200, 3), np.full(80, 1), 2]
        instance = np.r_[np.zeros(200, dtype=int), np.full(40, 1), np.full(40, 2), 3]
        scans.append(LidarScan(points, frame, semantic, instance))
    return ScanSequence(scans, [Pose.identity()] * 2, desk_preset().class_map())


@pytest.mark.parametrize("augment", [False, True])
def test_label_pairs_over_capacity_fail_before_the_first_step(augment, optimizer_steps):
    """Four labelled pairs for three queries fail before step 0, with
    augmentation or without; counting the identity voxelization's targets
    let the augmented run fail after 11 optimizer steps."""
    cfg = desk_preset(num_queries=3, aug_translate=augment, steps=60)
    model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
    with pytest.raises(CapacityError, match=r"window frames \[0, 1\]: 4 targets exceed 3 queries"):
        train_model(model, capacity_scene(), cfg, log_every=0)
    assert optimizer_steps == []


def emptied(scan):
    return dataclasses.replace(scan, points=np.zeros((0, 3)), semantic=np.zeros(0, int), instance=np.zeros(0, int))


def empty_scans(seq):
    return dataclasses.replace(seq, scans=seq.scans[:2] + tuple(emptied(scan) for scan in seq.scans[2:]))


def non_finite_point(seq):
    points = seq.scans[3].points.copy()
    points[5] = np.nan
    scan = dataclasses.replace(seq.scans[3], points=points)
    return dataclasses.replace(seq, scans=seq.scans[:3] + (scan,))


def reflected_pose(seq):
    pose = Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))
    return dataclasses.replace(seq, poses=seq.poses[:3] + (pose,))


@pytest.mark.parametrize(
    "corrupt, error, message",
    [
        (empty_scans, EmptyInstanceError, r"window frames \[2, 3\]: no points"),
        (non_finite_point, ParameterError, r"frame 3: point 5 \[nan, .*\] is not finite"),
        (reflected_pose, InvalidPoseError, "determinant"),
    ],
    ids=["empty", "non_finite", "invalid_pose"],
)
def test_bad_last_window_fails_before_the_first_step(corrupt, error, message, optimizer_steps):
    """An empty window fails in train_model's check pass; a non-finite point
    or an improper rotation cannot reach it, since building the scan or the
    pose raises."""
    seq = generate_sequence(
        SceneSpec(seed=1, num_frames=4, num_thing_objects=2, points_per_object=40, points_per_stuff=80)
    )
    cfg = tiny_cfg(steps=4, train_stride=2)  # windows (0, 1) and (2, 3)
    with pytest.raises(error, match=message):
        seq = corrupt(seq)
        train_model(PanopticModel(cfg.model_config(), init_seed=0), seq, cfg, log_every=0)
    assert optimizer_steps == []


def test_each_step_prepares_only_its_own_windows(tiny_seq, monkeypatch):
    """prepare_window runs once per batch item and nowhere else: nothing is
    voxelized before step 0 (a pass that prepared every window made one more
    call per window)."""
    calls = []
    prepare = training.prepare_window

    def counted(*args, **kwargs):
        calls.append(args[0][0].frame_index)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(training, "prepare_window", counted)
    cfg = tiny_cfg(steps=3, batch_size=2)
    train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg, log_every=0)
    assert calls == [0, 1, 0, 1, 0, 1]


def test_planar_scene_trains():
    """A desk training on a scene whose points all lie at z = 0 completes:
    its boxes are normalized by the window context's floored extent."""
    seq = desk_scene()
    flat = [dataclasses.replace(s, points=np.column_stack([s.points[:, :2], np.zeros(s.num_points)])) for s in seq.scans]
    seq = dataclasses.replace(seq, scans=flat)
    cfg = desk_preset(steps=2)
    model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
    result = train_model(model, seq, cfg, log_every=0)
    assert len(result.rows) == 2 and np.isfinite(result.final_loss)


def test_empty_window_fails_naming_its_frames(tiny_seq):
    scans = [emptied(scan) for scan in tiny_seq.scans[:2]] + list(tiny_seq.scans[2:])
    seq = dataclasses.replace(tiny_seq, scans=scans)
    cfg = tiny_cfg(steps=2)
    with pytest.raises(EmptyInstanceError, match=r"window frames \[0, 1\]: no points"):
        train_model(PanopticModel(cfg.model_config(), init_seed=0), seq, cfg, log_every=0)


def test_sequence_windows_cover_all_frames(tiny_seq):
    wins = sequence_windows(tiny_seq, window=2, stride=1)
    assert [w[0][0].frame_index for w in wins] == [0, 1]
    wins = sequence_windows(tiny_seq, window=5, stride=1)  # longer than sequence
    assert len(wins) == 1 and len(wins[0][0]) == 3


@pytest.mark.parametrize(
    "n, window, stride, starts",
    [
        (3, 5, 1, [0]),  # n < window: clamped to one window
        (3, 5, 4, [0]),
        (3, 3, 1, [0]),  # window == n
        (5, 2, 1, [0, 1, 2, 3]),
        (5, 1, 1, [0, 1, 2, 3, 4]),
        (6, 2, 2, [0, 2, 4]),  # stride == window: disjoint training windows
        (8, 2, 3, [0, 3, 6]),  # stride > window
        (6, 3, 2, [0, 2, 3]),  # tail start appended
        (9, 2, 3, [0, 3, 6, 7]),  # stride > window, tail start appended
        (10, 4, 3, [0, 3, 6]),  # the last stride step already ends the sequence
    ],
)
def test_window_starts_table(n, window, stride, starts):
    assert window_starts(n, window, stride) == starts


def test_window_starts_rejects_stride_below_one():
    for stride in (0, -1):
        with pytest.raises(ParameterError, match="stride"):
            window_starts(4, 2, stride)


def test_sequence_windows_rejects_zero_stride(tiny_seq):
    with pytest.raises(ParameterError, match="stride"):
        sequence_windows(tiny_seq, 2, 0)


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)))
def test_augmentation_transform_matches_oracle(tiny_seq, flags):
    rotate, translate, scale = flags
    cfg = tiny_cfg(aug_rotate=rotate, aug_translate=translate, aug_scale=scale)
    rng_oracle = np.random.Generator(np.random.PCG64(11))
    rng = np.random.Generator(np.random.PCG64(11))
    # twice round the windows, so later draws depend on earlier ones
    for scans, poses in sequence_windows(tiny_seq, cfg.window, cfg.train_stride) * 2:
        want = _augmented_window(scans, poses, cfg, rng_oracle)
        got = prepare_window(scans, poses, cfg.voxel_size, transform=augmentation(cfg, rng))
        assert got.frames == want.frames and got.scans is want.scans
        for name in ("points", "frame_of"):
            assert_bitwise(getattr(got.cloud, name), getattr(want.cloud, name))
        frame_of = np.concatenate([np.full(s.num_points, s.frame_index) for s in scans])
        assert_bitwise(got.cloud.frame_of, frame_of)
        for name in ("voxel_coords", "point_to_voxel", "voxel_centroids"):
            assert_bitwise(getattr(got.grid, name), getattr(want.grid, name))
        assert got.grid.voxel_size == want.grid.voxel_size
        assert_bitwise(got.seed, want.seed)
        assert_bitwise(got.ctx.extent_min, want.ctx.extent_min)
        assert_bitwise(got.ctx.extent_max, want.ctx.extent_max)
        assert (got.ctx.frame_lo, got.ctx.frame_hi) == (want.ctx.frame_lo, want.ctx.frame_hi)
    assert rng.bit_generator.state == rng_oracle.bit_generator.state


def test_zero_lr_keeps_parameters(tiny_seq):
    cfg = tiny_cfg(max_lr=1e-30, steps=3)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    before = {k: p.values.copy() for k, p in model.parameters().items()}
    train_model(model, tiny_seq, cfg)
    for k, p in model.parameters().items():
        np.testing.assert_allclose(p.values, before[k], atol=1e-20)


def test_loss_decreases(tiny_seq):
    cfg = tiny_cfg(steps=120)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    result = train_model(model, tiny_seq, cfg)
    assert result.rows[-1]["loss_total"] < result.rows[0]["loss_total"]


def test_deterministic_given_seed(tiny_seq):
    cfg = tiny_cfg(steps=8)
    r1 = train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg)
    r2 = train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg)
    assert r1.csv() == r2.csv()


def test_augmentation_flags_run_and_stay_deterministic(tiny_seq):
    cfg = tiny_cfg(steps=6, aug_rotate=True, aug_translate=True, aug_scale=True)
    r1 = train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg)
    r2 = train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg)
    assert r1.csv() == r2.csv()
    cfg_off = tiny_cfg(steps=6)
    r3 = train_model(PanopticModel(cfg_off.model_config(), init_seed=0), tiny_seq, cfg_off)
    assert r1.csv() != r3.csv()


def test_batch_accumulation_runs(tiny_seq):
    cfg = tiny_cfg(steps=4, batch_size=2)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    result = train_model(model, tiny_seq, cfg)
    assert len(result.rows) == 4


def test_csv_columns(tiny_seq):
    cfg = tiny_cfg(steps=2)
    result = train_model(PanopticModel(cfg.model_config(), init_seed=0), tiny_seq, cfg)
    header = result.csv().splitlines()[0].split(",")
    assert header == [
        "step", "lr", "loss_total", "loss_dice", "loss_bce", "loss_ce",
        "loss_box", "loss_no_object",
    ]
    assert len(result.csv().splitlines()) == 3


def test_unlabeled_sequence_rejected(tiny_seq):
    """The error names the sequence and its first frame without labels."""
    scans = [tiny_seq.scans[0]] + [dataclasses.replace(s, semantic=None) for s in tiny_seq.scans[1:]]
    seq = dataclasses.replace(tiny_seq, scans=scans)
    model = PanopticModel(tiny_cfg().model_config(), init_seed=0)
    with pytest.raises(ParameterError, match="training sequence 1: frame 1 has no labels"):
        train_model(model, [tiny_seq, seq], tiny_cfg())


def test_diverged_loss_aborts(tiny_seq, monkeypatch):
    cfg = tiny_cfg(steps=3)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    model.query_bias.values[...] = np.nan
    with pytest.raises(TrainingDiverged) as exc:
        train_model(model, tiny_seq, cfg)
    assert exc.value.step == 0


def test_checkpoint_round_trip(tmp_path, tiny_seq):
    cfg = tiny_cfg(steps=2)
    model = PanopticModel(cfg.model_config(), init_seed=0)
    train_model(model, tiny_seq, cfg)
    path = str(tmp_path / "m.ckpt")
    save_model(path, model, cfg)
    model2, cfg2 = load_model(path)
    assert cfg2 == cfg
    p1, p2 = model.parameters(), model2.parameters()
    assert set(p1) == set(p2)
    for k in p1:
        np.testing.assert_array_equal(p1[k].values, p2[k].values)


def desk_scene(num_frames: int = 4):
    """The overfit scene of acceptance criterion 4, num_frames long."""
    return generate_sequence(
        SceneSpec(
            seed=0,
            num_frames=num_frames,
            num_thing_objects=3,
            points_per_object=110,
            points_per_stuff=220,
        )
    )


def desk_window():
    """The desk-preset model and the first window of the overfit scene of
    acceptance criterion 4, with its targets."""
    seq = desk_scene()
    cfg = desk_preset()
    model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
    scans, poses = sequence_windows(seq, cfg.window, cfg.train_stride)[0]
    data = prepare_window(scans, poses, cfg.voxel_size)
    return model, data, model.window_targets(data), cfg.loss_weights()


def desk_step_loss(model, data, targets, weights):
    fwd = model.forward(data)
    match = hungarian_match(fwd.final, targets, weights)
    loss, _ = total_loss(fwd.outputs, targets, match, weights)
    return loss


def mismatched_checkpoint(path, change):
    """A valid tiny checkpoint whose parameter table `change` then edits."""
    cfg = tiny_cfg()
    save_model(path, PanopticModel(cfg.model_config(), init_seed=0), cfg)
    params, cfg_text = load_checkpoint(path)
    change(params)
    save_checkpoint(path, params, cfg_text)


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda p: p.pop("query_bias"), "missing parameter 'query_bias'"),
        (lambda p: p.update(extra=np.zeros(3)), "unexpected parameter 'extra'"),
        (lambda p: p.update(query_bias=p["query_bias"][:1]), "parameter 'query_bias' has shape"),
    ],
    ids=["missing", "unexpected", "shape"],
)
def test_checkpoint_parameter_mismatch_names_file(tmp_path, change, message):
    path = str(tmp_path / "bad.ckpt")
    mismatched_checkpoint(path, change)
    with pytest.raises(FormatError, match=message) as exc:
        load_model(path)
    assert path in str(exc.value)


def test_desk_step_tape_budget():
    """One desk-preset forward + loss + backward on the overfit scene of
    acceptance criterion 4 records at most 400 tensors (about 1350 before
    linear and attention were fused and the deep-supervision loss batched)."""
    window = desk_window()
    first = ad.Tensor(0.0)._id  # tensor ids count every construction
    ad.backward(desk_step_loss(*window))
    created = ad.Tensor(0.0)._id - first - 1
    assert created <= 400, f"{created} tensors per step"


def captured(fn, seen: set) -> list:
    """What a function's closure holds, through nested functions and tuples."""
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if id(value) in seen:
            continue
        seen.add(id(value))
        if inspect.isfunction(value):
            found += captured(value, seen)
        elif isinstance(value, (tuple, list)):
            found += value
        else:
            found.append(value)
    return found


def test_desk_step_records_hold_no_tensor():
    """Every record of one desk step links to records or requires-grad
    leaves, and no backward rule keeps a Tensor (and so its values) alive."""
    loss = desk_step_loss(*desk_window())
    seen, stack = set(), [loss._record]
    while stack:
        record = stack.pop()
        if id(record) in seen:
            continue
        seen.add(id(record))
        for parent in record._parents:
            if isinstance(parent, ad.Tensor):
                assert parent.requires_grad
            elif parent is not None:
                stack.append(parent)
        held = [v for v in captured(record._vjp, set()) if isinstance(v, ad.Tensor)]
        assert not held, f"{record._vjp.__qualname__} holds {held}"
    assert len(seen) > 200


def test_training_memory_bound():
    """The tracemalloc peak of a 3-step desk training on a denser scene:
    96.2 MB when every intermediate tensor stayed reachable from the loss
    until backward returned, 39.5 MB with records that hold no values and
    that backward consumes."""
    seq = generate_sequence(
        SceneSpec(
            seed=0, num_frames=4, num_thing_objects=3, points_per_object=1000, points_per_stuff=2000
        )
    )
    peak = desk_training_peak(seq, steps=3)
    assert peak < 55e6, f"peak {peak / 1e6:.1f} MB"


def desk_training_peak(seq, steps: int) -> int:
    """The tracemalloc peak of a desk training on seq, model included."""
    cfg = desk_preset(steps=steps)
    tracemalloc.start()
    try:
        model = PanopticModel(cfg.model_config(), init_seed=cfg.model_seed)
        train_model(model, seq, cfg, log_every=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_windows():
    """Each step prepares its own window, so 200 windows peak within 1.25x
    of 20 (1.00x measured; 1.81x when every window was prepared and kept
    before step 0)."""
    few, many = desk_scene(21), desk_scene(201)
    ratio = desk_training_peak(many, steps=2) / desk_training_peak(few, steps=2)
    assert ratio < 1.25, f"200 windows peak at {ratio:.2f}x of 20"
