"""The assembled network: window preparation, backbone, query refinement, and
mask predictions, plus checkpoint save/load with an embedded config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .backbone import Backbone, FeaturePyramid, seed_features
from .decoder import FourierEncoder, QueryRefiner, init_queries
from .errors import ContractError, ParameterError
from .geometry import LidarScan, Pose, SuperimposedCloud, VoxelGrid, WindowContext, superimpose, voxelize
from .heads import MaskModule, MaskModuleOutput, Targets, build_targets
from .sequence import ClassMap


def project(cls, obj, **overrides):
    """An instance of dataclass cls holding obj's values of cls's fields."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    values.update(overrides)
    return cls(**values)


@dataclass(frozen=True)
class ModelConfig:
    voxel_size: float = 0.05
    window: int = 2  # scans superimposed per spatio-temporal cloud
    num_queries: int = 100
    dim: int = 64
    num_heads: int = 4
    num_rounds: int = 3
    ffn_width: int = 128
    mask_threshold: float = 0.5
    num_frequencies: int = 6
    freq_base: float = 2.0
    backbone_depth: int = 4
    backbone_widths: tuple[int, ...] = (32, 64, 96, 128)
    thing_classes: tuple[int, ...] = (1, 2)
    stuff_classes: tuple[int, ...] = (3, 4)
    query_seed: int = 0

    def __post_init__(self):
        # one rule for the float and the seed fields of this class and of its subclasses
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise ParameterError(f"{f.name} must be finite, got {value}")
            if f.name.endswith("_seed") and value < 0:
                raise ParameterError(f"{f.name} must be >= 0, got {value}")
        if self.voxel_size <= 0:
            raise ParameterError("voxel_size must be positive")
        if self.window < 1:
            raise ParameterError("window must be >= 1")
        if self.num_queries < 1:
            raise ParameterError("need at least one query")
        if self.num_heads < 1:
            raise ParameterError("num_heads must be >= 1")
        if self.dim < 1 or self.ffn_width < 1:
            raise ParameterError(f"dim {self.dim} and ffn_width {self.ffn_width} must be >= 1")
        if self.dim % self.num_heads != 0:
            raise ParameterError(
                f"dim {self.dim} is not divisible by {self.num_heads} heads"
            )
        if self.num_rounds < 0:
            raise ParameterError("num_rounds must be >= 0")
        # the decoder compares logits with logit(mask_threshold)
        if not 0.0 < self.mask_threshold < 1.0:
            raise ParameterError(
                f"mask_threshold must be in (0, 1), got {self.mask_threshold}"
            )
        if self.num_frequencies < 1:
            raise ParameterError("need at least one frequency")
        if self.freq_base <= 1.0:
            raise ParameterError("freq_base must be > 1 for a geometric bank")
        if self.backbone_depth < 1:
            raise ParameterError("backbone depth must be >= 1")
        if len(self.backbone_widths) != self.backbone_depth:
            raise ParameterError(
                f"got {len(self.backbone_widths)} widths for depth {self.backbone_depth}"
            )
        if any(w <= 0 for w in self.backbone_widths):
            raise ParameterError("backbone widths must be positive")
        self.class_map()  # rejects overlapping or unwritable class ids

    def class_map(self) -> ClassMap:
        return ClassMap(thing_ids=self.thing_classes, stuff_ids=self.stuff_classes)


@dataclass
class WindowData:
    """One prepared inference/training window."""

    frames: list[int]
    scans: list[LidarScan]
    cloud: SuperimposedCloud
    grid: VoxelGrid
    seed: np.ndarray  # (K0, SEED_DIM)
    ctx: WindowContext


def point_labels(scans: list[LidarScan], cloud: SuperimposedCloud) -> tuple[np.ndarray, np.ndarray]:
    """Per superimposed point (semantic, instance) pulled from the scans."""
    n = cloud.num_points
    sem = np.concatenate([s.semantic for s in scans], dtype=np.int64)
    inst = np.concatenate([s.instance for s in scans], dtype=np.int64)
    for flat in (sem, inst):
        if flat.shape != (n,):
            raise ContractError(f"{flat.size} labels for a window of {n} points")
    return sem, inst


def prepare_window(
    scans: list[LidarScan],
    poses: list[Pose],
    voxel_size: float,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> WindowData:
    """Superimpose, voxelize and seed one window; transform, when given, maps
    the superimposed (M, 3) points before voxelizing (training augmentation).
    The window must have points."""
    cloud = superimpose(scans, poses)
    frames = [s.frame_index for s in scans]
    if transform is not None:
        cloud.points = transform(cloud.points)
    grid = voxelize(cloud, voxel_size)
    return WindowData(
        frames=frames,
        scans=scans,
        cloud=cloud,
        grid=grid,
        seed=seed_features(grid, frames),
        ctx=WindowContext(*cloud.extent(), min(frames), max(frames)),
    )


@dataclass
class ForwardResult:
    outputs: list[MaskModuleOutput]  # one per refinement step plus the initial one
    pyramid: FeaturePyramid

    @property
    def final(self) -> MaskModuleOutput:
        return self.outputs[-1]


class PanopticModel:
    """Backbone + query refinement + mask module over one window."""

    def __init__(self, config: ModelConfig, init_seed: int = 0):
        self.config = config
        self.class_map = config.class_map()
        rng = np.random.Generator(np.random.PCG64(init_seed))
        self.backbone = Backbone(rng, config)
        self.fourier = FourierEncoder(rng, config)
        self.refiner = QueryRefiner(rng, config)
        self.mask_module = MaskModule(
            rng,
            dim=config.dim,
            finest_width=config.backbone_widths[0],
            num_classes=self.class_map.ids.size,
        )
        self.query_bias = Tensor(np.zeros(config.dim), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {"query_bias": self.query_bias}
        for prefix, module in (
            ("backbone", self.backbone),
            ("fourier", self.fourier),
            ("refiner", self.refiner),
            ("mask", self.mask_module),
        ):
            for name, p in module.parameters().items():
                params[f"{prefix}.{name}"] = p
        return params

    def forward(self, window: WindowData) -> ForwardResult:
        pyramid = self.backbone.extract(window.grid, Tensor(window.seed))
        # A window sparser than the query budget anchors one query per voxel.
        features = init_queries(
            window.grid,
            min(self.config.num_queries, window.grid.num_voxels),
            self.fourier,
            self.query_bias,
            window.ctx,
            seed=self.config.query_seed,
        )
        outputs = self.refiner.refine(features, pyramid, self.mask_module, self.fourier, window.ctx)
        return ForwardResult(outputs=outputs, pyramid=pyramid)

    def window_targets(self, window: WindowData) -> Targets:
        sem, inst = point_labels(window.scans, window.cloud)
        return build_targets(window.cloud, window.grid, sem, inst, self.class_map, window.ctx)
