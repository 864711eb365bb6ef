"""Run configuration and the plain-text key-value config format.

Files hold one `key = value` pair per line; blank lines and lines starting
with '#' are skipped. Tuples are comma-separated, a `tuple[float, float]`
takes exactly two values, booleans are true/false, and the (instance, frame)
hide list uses `instance:frame` pairs. Unknown keys are rejected so typos
fail loudly, and load -> serialize -> load is the identity.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .errors import FormatError, ParameterError, domain
from .heads import LossWeights
from .model import ModelConfig, project
from .optim import OneCycleSchedule
from .synth import SceneSpec


@dataclass(frozen=True)
class RunConfig(ModelConfig):
    """Model fields (inherited, listed first) plus training and inference."""

    model_seed: int = field(default=0, metadata=domain(0))
    # training; the schedule and loss-weight fields take their domains from
    # OneCycleSchedule and LossWeights, which __post_init__ builds
    steps: int = 2000
    batch_size: int = field(default=1, metadata=domain(1))
    max_lr: float = 2e-4
    warmup_frac: float = 0.3
    weight_decay: float = field(default=0.01, metadata=domain(0))
    beta1: float = field(default=0.9, metadata=domain(0, 1, below=True))
    beta2: float = field(default=0.999, metadata=domain(0, 1, below=True))
    lambda_dice: float = LossWeights.lambda_dice
    lambda_bce: float = LossWeights.lambda_bce
    lambda_ce: float = LossWeights.lambda_ce
    lambda_box: float = LossWeights.lambda_box
    no_object_weight: float = LossWeights.no_object_weight
    use_box_loss: bool = True
    train_stride: int = field(default=1, metadata=domain(1))
    train_seed: int = field(default=0, metadata=domain(0))
    aug_rotate: bool = False
    aug_translate: bool = False
    aug_scale: bool = False
    sequence_dir: str = ""
    # inference / tracking
    stride: int = field(default=1, metadata=domain(1))
    use_dbscan: bool = True
    dbscan_eps: float = field(default=1.0, metadata=domain(0, above=True))
    dbscan_min_pts: int = field(default=1, metadata=domain(1))

    def __post_init__(self):
        super().__post_init__()
        if self.window > 1 and self.stride >= self.window:
            raise ParameterError(
                f"stride {self.stride} must be in [1, window) for window {self.window}"
            )
        project(LossWeights, self)  # lambda_box too, whether or not use_box_loss
        self.schedule()

    def model_config(self) -> ModelConfig:
        return project(ModelConfig, self)

    def schedule(self) -> OneCycleSchedule:
        return OneCycleSchedule(self.max_lr, self.steps, self.warmup_frac)

    def loss_weights(self) -> LossWeights:
        return project(
            LossWeights, self, lambda_box=self.lambda_box if self.use_box_loss else 0.0
        )


def desk_preset(**overrides) -> RunConfig:
    """Small configuration that trains in minutes on one CPU core."""
    base = dict(
        voxel_size=0.8,
        window=2,
        num_queries=12,
        dim=64,
        num_heads=4,
        num_rounds=2,
        ffn_width=96,
        num_frequencies=6,
        backbone_depth=3,
        backbone_widths=(24, 48, 64),
        steps=1500,
        batch_size=1,
        max_lr=1e-3,
    )
    base.update(overrides)
    return RunConfig(**base)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(str(v) for v in value)
    return str(value)


def _parse_value(text: str, tp: str):
    """The value of type annotation tp in text; a ValueError when it does not parse."""
    text = text.strip()
    if tp == "int":
        return int(text)
    if tp == "float":
        return float(text)
    if tp == "str":
        return text
    if tp == "bool":
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise ParameterError(f"bad boolean {text!r}")
    items = [p.strip() for p in text.split(",") if p.strip()]
    if tp == "tuple[int, ...]":
        return tuple(int(p) for p in items)
    if tp == "tuple[float, float]":
        if len(items) != 2:
            raise ParameterError(f"expected two comma-separated values, got {text!r}")
        return tuple(float(p) for p in items)
    if tp == "tuple[tuple[int, int], ...]":
        pairs = [p.split(":") for p in items]
        if any(len(pair) != 2 for pair in pairs):
            raise ParameterError(f"expected comma-separated a:b pairs, got {text!r}")
        return tuple((int(a), int(b)) for a, b in pairs)
    raise ParameterError(f"unsupported config field type {tp!r}")


# Keys that earlier versions wrote into run configs and checkpoints, each with
# the one value the code still runs. A RunConfig text may hold a retired key
# at that value, which is skipped; any other value is an error.
RETIRED_KEYS = {"cost_reduction": "mean", "dbscan_per_frame": False}


def config_to_text(obj) -> str:
    lines = []
    for f in dataclasses.fields(obj):
        lines.append(f"{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def config_from_text(cls, text: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    values, seen = {}, set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        retired = key in RETIRED_KEYS and issubclass(cls, RunConfig)
        if key not in fields and not retired:
            raise ParameterError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ParameterError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if not retired:
                values[key] = _parse_value(value, fields[key].type)
            elif _parse_value(value, type(RETIRED_KEYS[key]).__name__) != RETIRED_KEYS[key]:
                raise ParameterError(
                    f"the key was removed; only its old value "
                    f"{_format_value(RETIRED_KEYS[key])} is accepted, got {value.strip()!r}"
                )
        except ValueError as exc:
            raise ParameterError(f"line {lineno}: bad value for key {key!r}: {exc}") from exc
    return cls(**values)


def load_config(path: str, cls=RunConfig):
    """The config of class cls in file path; every error names the path."""
    try:
        with open(path, "rb") as f:
            return config_from_text(cls, f.read().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config is not UTF-8 text", byte_offset=exc.start) from exc
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_config(path: str, obj) -> None:
    with open(path, "w") as f:
        f.write(config_to_text(obj))


def load_scene_spec(path: str) -> SceneSpec:
    return load_config(path, cls=SceneSpec)
