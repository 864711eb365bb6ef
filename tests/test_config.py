import dataclasses
from pathlib import Path

import numpy as np
import pytest

from panoptic4d.config import (
    RETIRED_KEYS,
    RunConfig,
    config_from_text,
    config_to_text,
    desk_preset,
    load_config,
    load_scene_spec,
    save_config,
)
from panoptic4d.errors import FormatError, ParameterError
from panoptic4d.model import ModelConfig
from panoptic4d.optim import load_checkpoint, one_cycle_lr
from panoptic4d.synth import SceneSpec
from panoptic4d.training import load_model

ROOT = Path(__file__).resolve().parent.parent


def test_defaults_match_production_settings():
    cfg = RunConfig()
    assert cfg.voxel_size == 0.05
    assert cfg.window == 2
    assert cfg.num_queries == 100
    assert cfg.max_lr == 2e-4
    assert cfg.stride == cfg.window - 1


def test_round_trip_identity():
    cfg = desk_preset(steps=321, aug_rotate=True, sequence_dir="/tmp/x")
    text = config_to_text(cfg)
    back = config_from_text(RunConfig, text)
    assert back == cfg
    assert config_to_text(back) == text


def test_file_round_trip(tmp_path):
    cfg = desk_preset()
    path = str(tmp_path / "run.cfg")
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_unknown_key_rejected():
    with pytest.raises(ParameterError, match="unknown config key"):
        config_from_text(RunConfig, "not_a_key = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParameterError, match="duplicate"):
        config_from_text(RunConfig, "steps = 3\nsteps = 4\n")
    with pytest.raises(ParameterError, match="line 2: duplicate key 'cost_reduction'"):
        config_from_text(RunConfig, "cost_reduction = mean\ncost_reduction = mean\n")


def test_comments_and_blank_lines():
    cfg = config_from_text(RunConfig, "# comment\n\nsteps = 7\n")
    assert cfg.steps == 7


def test_tuple_and_bool_parsing():
    cfg = config_from_text(
        RunConfig, "backbone_widths = 8,16\nbackbone_depth = 2\nuse_dbscan = false\n"
    )
    assert cfg.backbone_widths == (8, 16)
    assert cfg.use_dbscan is False


def test_scene_spec_round_trip():
    spec = SceneSpec(seed=9, hidden=((1, 2), (2, 0)), object_speed_range=(0.1, 0.5))
    back = config_from_text(SceneSpec, config_to_text(spec))
    assert back == spec


def test_stride_validation():
    with pytest.raises(ParameterError):
        RunConfig(window=2, stride=2)


def test_window_one_needs_stride_one():
    with pytest.raises(ParameterError, match=r"^stride 3 must be 1 for window 1$"):
        RunConfig(window=1, stride=3)
    assert RunConfig(window=1, stride=1, train_stride=3).train_stride == 3


def test_training_defaults():
    cfg = RunConfig()
    assert (cfg.steps, cfg.max_lr, cfg.warmup_frac) == (2000, 2e-4, 0.3)
    weights = (cfg.lambda_dice, cfg.lambda_bce, cfg.lambda_ce, cfg.lambda_box, cfg.no_object_weight)
    assert weights == (2.0, 5.0, 2.0, 1.0, 0.1)


@pytest.mark.parametrize(
    "text, message",
    [
        ("steps = 0\n", "steps must be >= 1, got 0"),
        ("max_lr = 0.0\n", "max_lr must be > 0, got 0.0"),
        ("warmup_frac = 1.5\n", "warmup_frac must be in [0, 1], got 1.5"),
        ("warmup_frac = -0.1\n", "warmup_frac must be in [0, 1], got -0.1"),
        ("lambda_bce = -1.0\n", "lambda_bce must be >= 0, got -1.0"),
        ("lambda_ce = -0.5\n", "lambda_ce must be >= 0, got -0.5"),
        ("use_box_loss = false\nlambda_box = -1.0\n", "lambda_box must be >= 0, got -1.0"),
        ("no_object_weight = -0.1\n", "no_object_weight must be >= 0, got -0.1"),
        ("max_lr = inf\n", "max_lr must be finite, got inf"),
    ],
)
def test_training_field_messages(text, message):
    with pytest.raises(ParameterError) as info:
        config_from_text(RunConfig, text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [("lambda_dice = -1.0\n", "lambda_dice must be >= 0"), ("cost_reduction = median\n", "median")],
)
def test_bad_loss_weights_rejected_on_load(text, message):
    with pytest.raises(ParameterError, match=message):
        config_from_text(RunConfig, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("dim = 30\n", "not divisible by 4 heads"),
        ("num_heads = 0\n", "num_heads must be >= 1"),
        ("num_rounds = -1\n", "num_rounds"),
        ("mask_threshold = 1.5\n", "mask_threshold"),
        ("mask_threshold = 0.0\n", "mask_threshold"),
        ("num_frequencies = 0\n", "num_frequencies must be >= 1"),
        ("freq_base = 1.0\n", "freq_base"),
        ("backbone_depth = 4\nbackbone_widths = 24,48,64\n", "3 widths for depth 4"),
        ("backbone_depth = 0\nbackbone_widths = \n", "backbone_depth must be >= 1"),
        ("backbone_depth = 3\nbackbone_widths = 24,0,64\n", "backbone_widths must be >= 1"),
    ],
)
def test_bad_model_values_rejected_on_load(text, message):
    with pytest.raises(ParameterError, match=message):
        config_from_text(RunConfig, text)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]


@pytest.mark.parametrize(
    "text, key",
    [
        ("voxel_size = nan\n", "voxel_size"),
        ("voxel_size = inf\n", "voxel_size"),
        ("voxel_size = -inf\n", "voxel_size"),
        ("freq_base = nan\n", "freq_base"),
        ("freq_base = inf\n", "freq_base"),
        ("dbscan_eps = nan\n", "dbscan_eps"),
        ("dbscan_eps = inf\n", "dbscan_eps"),
        ("max_lr = nan\n", "max_lr"),
        ("lambda_dice = nan\n", "lambda_dice"),
        ("lambda_dice = inf\n", "lambda_dice"),
        ("dim = 0\n", "dim"),
        ("ffn_width = 0\n", "ffn_width"),
        ("ffn_width = -3\n", "ffn_width"),
        ("dbscan_eps = 0.0\n", "dbscan_eps"),
        ("dbscan_eps = -1.0\n", "dbscan_eps"),
        ("dbscan_min_pts = 0\n", "dbscan_min_pts"),
        ("beta1 = 1.0\n", "beta1"),
        ("beta1 = -0.1\n", "beta1"),
        ("beta2 = 1.0\n", "beta2"),
        ("beta2 = 1.5\n", "beta2"),
        ("weight_decay = -0.01\n", "weight_decay"),
        ("steps = 0\n", "steps"),
        ("steps = -5\n", "steps"),
        ("max_lr = 0.0\n", "max_lr"),
        ("max_lr = -1e-3\n", "max_lr"),
        ("warmup_frac = 1.5\n", "warmup_frac"),
        ("warmup_frac = -0.1\n", "warmup_frac"),
    ]
    + [(f"{name} = nan\n", name) for name in FLOAT_FIELDS],
)
def test_bad_values_rejected_on_load_naming_the_key(text, key):
    with pytest.raises(ParameterError, match=rf"\b{key}\b"):
        config_from_text(RunConfig, text)


# ---------------------------------------------------------------------------
# one range rule: every numeric field is checked, each domain at both ends

CHECKED_CLASSES = [RunConfig, SceneSpec]
# float fields whose every finite value is usable
FINITE_ONLY = {"ego_speed", "ego_turn_rate", "min_object_separation"}
# what a boundary value needs to meet the cross-field rules
CONTEXT = {"dim": {"num_heads": "1"}, "backbone_depth": {"backbone_widths": "32"}}


@pytest.mark.parametrize("cls", CHECKED_CLASSES, ids=lambda c: c.__name__)
def test_every_numeric_field_declares_its_check(cls):
    """So a new int or float field cannot arrive unchecked."""
    for f in dataclasses.fields(cls):
        if f.type in ("int", "float") and f.name not in FINITE_ONLY:
            assert "domain" in f.metadata, f"{cls.__name__}.{f.name} declares no domain"
    finite_only = {f.name: f.type for f in dataclasses.fields(SceneSpec) if f.name in FINITE_ONLY}
    assert finite_only == dict.fromkeys(FINITE_ONLY, "float")


def _step(value, toward, is_int):
    if is_int:
        return value + (1 if toward > value else -1)
    return float(np.nextafter(value, toward))


def _domain_cases():
    """(cls, key, value just outside an end, the value at that end or just
    inside an open one) for every declared domain and each of its ends."""
    for cls in CHECKED_CLASSES:
        for f in dataclasses.fields(cls):
            bounds = f.metadata.get("domain")
            if bounds is None:
                continue
            lo, hi, above, below = bounds
            is_int = "int" in f.type
            yield cls, f.name, (lo, _step(lo, np.inf, is_int)) if above else (_step(lo, -np.inf, is_int), lo)
            if hi is not None:
                yield cls, f.name, (hi, _step(hi, -np.inf, is_int)) if below else (_step(hi, np.inf, is_int), hi)


DOMAIN_CASES = list(_domain_cases())


def _config_text(cls, key, value) -> str:
    values = dict(CONTEXT.get(key, {}))
    default = next(f.default for f in dataclasses.fields(cls) if f.name == key)
    text = repr(value) if isinstance(value, float) else str(value)
    values[key] = ",".join([text] * len(default)) if isinstance(default, tuple) else text
    return "".join(f"{k} = {v}\n" for k, v in values.items())


@pytest.mark.parametrize(
    "cls, key, values", DOMAIN_CASES, ids=[f"{c.__name__}-{k}-{v[0]}" for c, k, v in DOMAIN_CASES]
)
def test_values_just_outside_a_domain_fail_naming_the_key_and_its_ends_load(cls, key, values):
    outside, boundary = values
    with pytest.raises(ParameterError, match=rf"^{key} must be (>=? |in [\[(]).*, got "):
        config_from_text(cls, _config_text(cls, key, outside))
    loaded = getattr(config_from_text(cls, _config_text(cls, key, boundary)), key)
    assert loaded == boundary or loaded == (boundary,) * len(loaded)


def test_domain_cases_cover_the_bounds_this_rule_added():
    keys = {(cls, key) for cls, key, _ in DOMAIN_CASES}
    moved = {"no_object_weight", "lambda_box", "steps", "max_lr", "warmup_frac"}
    assert {(RunConfig, key) for key in moved} <= keys
    assert {(SceneSpec, "arena_extent"), (SceneSpec, "object_speed_range")} <= keys


@pytest.mark.parametrize(
    "cls, key",
    [
        (cls, f.name)
        for cls in CHECKED_CLASSES
        for f in dataclasses.fields(cls)
        if "float" in f.type
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_floats_fail_naming_the_key(cls, key, value):
    text = f"{key} = 0.2,{value}\n" if key == "object_speed_range" else f"{key} = {value}\n"
    with pytest.raises(ParameterError, match=rf"^{key} must be finite, got {value}"):
        config_from_text(cls, text)


def test_training_value_boundaries_load():
    cfg = config_from_text(
        RunConfig, "beta1 = 0.0\nbeta2 = 0.0\nweight_decay = 0.0\nwarmup_frac = 1.0\nsteps = 1\n"
    )
    assert one_cycle_lr(0, cfg.steps, cfg.max_lr, cfg.warmup_frac) == cfg.max_lr


# every checked-in config file with the loader its kind needs
SHIPPED_CONFIGS = {"desk.cfg": load_config, "overfit_scene.cfg": load_scene_spec}


def test_every_shipped_config_loads():
    configs = ROOT / "configs"
    assert sorted(p.name for p in configs.glob("*.cfg")) == sorted(SHIPPED_CONFIGS)
    for name, load in SHIPPED_CONFIGS.items():
        load(str(configs / name))


def test_every_shipped_config_is_the_serialization_of_what_it_loads():
    """So no shipped file keeps a comment, an unusual spelling or a retired key."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        loaded = SHIPPED_CONFIGS[path.name](str(path))
        assert config_to_text(loaded).encode() == path.read_bytes(), path.name


FIXTURE_CHECKPOINT = ROOT / "perfbench" / "fixtures" / "desk_dense.ckpt"


def test_benchmark_checkpoint_config_loads():
    _, cfg = load_model(str(FIXTURE_CHECKPOINT))
    assert isinstance(cfg, RunConfig)


def test_retired_keys_are_the_checkpoint_keys_run_config_lacks():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert not set(RETIRED_KEYS) & fields
    text = load_checkpoint(str(FIXTURE_CHECKPOINT))[1]
    keys = {line.partition("=")[0].strip() for line in text.splitlines() if line.strip()}
    assert keys - fields == set(RETIRED_KEYS)


def test_retired_keys_at_their_kept_values_are_skipped():
    base = "steps = 7\ndbscan_eps = 0.5\n"
    old = "steps = 7\ncost_reduction = mean\ndbscan_eps = 0.5\ndbscan_per_frame = false\n"
    assert config_from_text(RunConfig, old) == config_from_text(RunConfig, base)
    assert "cost_reduction" not in config_to_text(desk_preset())
    assert "dbscan_per_frame" not in config_to_text(desk_preset())


@pytest.mark.parametrize(
    "text, key, reason",
    [
        ("steps = 7\ndbscan_per_frame = true\n", "dbscan_per_frame", "the key was removed"),
        ("steps = 7\ncost_reduction = sum\n", "cost_reduction", "the key was removed"),
        ("steps = 7\ndbscan_per_frame = maybe\n", "dbscan_per_frame", "bad boolean"),
    ],
)
def test_retired_key_at_another_value_names_line_and_key(text, key, reason):
    with pytest.raises(ParameterError, match=rf"^line 2: bad value for key '{key}': {reason}"):
        config_from_text(RunConfig, text)


@pytest.mark.parametrize("text", ["cost_reduction = mean\n", "dbscan_per_frame = false\n"])
def test_retired_key_is_unknown_to_scene_spec(text):
    with pytest.raises(ParameterError, match="line 1: unknown config key"):
        config_from_text(SceneSpec, text)


def test_float_fields_cover_both_config_classes():
    assert {"voxel_size", "freq_base", "max_lr", "lambda_dice", "dbscan_eps"} <= set(FLOAT_FIELDS)


@pytest.mark.parametrize(
    "fields",
    [
        dict(window=1, stride=0),
        dict(window=1, train_stride=0),
        dict(window=3, stride=0),
        dict(window=3, train_stride=0),
        dict(window=2, stride=-1),
    ],
)
def test_strides_below_one_rejected_for_any_window(fields):
    with pytest.raises(ParameterError, match="stride"):
        RunConfig(**fields)


def test_desk_cfg_is_desk_preset():
    assert load_config(str(ROOT / "configs" / "desk.cfg")) == desk_preset()


def test_run_config_extends_model_config():
    model_fields = [f.name for f in dataclasses.fields(ModelConfig)]
    run_fields = [f.name for f in dataclasses.fields(RunConfig)]
    assert run_fields[: len(model_fields)] == model_fields
    assert not set(RunConfig.__annotations__) & set(model_fields)
    cfg = desk_preset(num_queries=7, query_seed=3)
    assert cfg.model_config() == ModelConfig(
        **{name: getattr(cfg, name) for name in model_fields}
    )
    assert type(cfg.model_config()) is ModelConfig


@pytest.mark.parametrize("cls", [RunConfig, SceneSpec])
@pytest.mark.parametrize(
    "text, bad",
    [
        ("thing_classes = 70000\n", "70000"),
        ("thing_classes = 1,65536\n", "65536"),
        ("stuff_classes = 3,255\n", "255"),
        ("stuff_classes = -1\n", "-1"),
    ],
)
def test_unwritable_class_ids_rejected_on_load(cls, text, bad):
    with pytest.raises(ParameterError, match=rf"class id {bad}\b"):
        config_from_text(cls, text)


@pytest.mark.parametrize("cls", [RunConfig, SceneSpec])
def test_overlapping_classes_rejected_on_load(cls):
    with pytest.raises(ParameterError, match=r"classes \[2\] are both thing and stuff"):
        config_from_text(cls, "thing_classes = 1,2\nstuff_classes = 2,3\n")


@pytest.mark.parametrize(
    "text, message",
    [
        (b"voxel_size = 0.8\nfoo = 1\n", "line 2: unknown config key 'foo'"),
        (b"window = 0\n", "window must be >= 1"),
        (b"window = two\n", "invalid literal"),
        (b"stuff_classes = 3,255\n", "class id 255"),
    ],
)
def test_load_config_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=message) as info:
        load_config(str(path))
    assert str(info.value).startswith(f"{path}: ")


def test_non_utf8_config_file_is_a_format_error_at_its_offset(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = 1\n\xff = 2\n")
    with pytest.raises(FormatError, match="not UTF-8") as info:
        load_scene_spec(str(path))
    assert info.value.byte_offset == 9 and str(path) in str(info.value)


@pytest.mark.parametrize(
    "cls, text, key",
    [
        (RunConfig, "thing_classes = 1:2\n", "thing_classes"),
        (SceneSpec, "thing_classes = 1:2\n", "thing_classes"),
        (SceneSpec, "hidden = 1\n", "hidden"),
        (SceneSpec, "hidden = 1:2:3\n", "hidden"),
        (SceneSpec, "hidden = 1:2,3\n", "hidden"),
        (SceneSpec, "object_speed_range = 0.2\n", "object_speed_range"),
        (SceneSpec, "object_speed_range = 0.9,0.1,0.5\n", "object_speed_range"),
        (SceneSpec, "object_speed_range = \n", "object_speed_range"),
    ],
)
def test_tuple_values_parse_by_their_declared_shape(cls, text, key):
    with pytest.raises(ParameterError, match=rf"^line 1: bad value for key '{key}'"):
        config_from_text(cls, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("object_speed_range = 0.9,0.1\n", "object_speed_range"),
        ("object_speed_range = -0.1,0.5\n", "object_speed_range"),
        ("object_speed_range = 0.1,nan\n", "object_speed_range"),
        ("object_speed_range = 0.1,inf\n", "object_speed_range"),
        ("num_thing_objects = 2\nhidden = 3:0\n", "hidden pair 3:0"),
        ("num_thing_objects = 2\nhidden = 0:1\n", "hidden pair 0:1"),
        ("num_frames = 4\nhidden = 1:4\n", "hidden pair 1:4"),
        ("hidden = 1:-1\n", "hidden pair 1:-1"),
    ],
)
def test_scene_spec_rejects_unusable_speeds_and_hide_pairs(text, message):
    with pytest.raises(ParameterError, match=message):
        config_from_text(SceneSpec, text)


def test_scene_spec_boundary_values_load():
    spec = config_from_text(
        SceneSpec,
        "num_frames = 3\nnum_thing_objects = 2\nobject_speed_range = 0.0,0.0\nhidden = 1:0,2:2\n",
    )
    assert spec.object_speed_range == (0.0, 0.0) and spec.hidden == ((1, 0), (2, 2))
