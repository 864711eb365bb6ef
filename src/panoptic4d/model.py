"""The assembled network: window preparation, backbone, query refinement, and
mask predictions, plus checkpoint save/load with an embedded config.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor
from .backbone import Backbone, FeaturePyramid, seed_features
from .decoder import FourierEncoder, QueryRefiner, init_queries
from .errors import ContractError, ParameterError, check_fields, domain
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
    voxel_size: float = field(default=0.05, metadata=domain(0, above=True))
    # scans superimposed per spatio-temporal cloud
    window: int = field(default=2, metadata=domain(1))
    num_queries: int = field(default=100, metadata=domain(1))
    dim: int = field(default=64, metadata=domain(1))
    num_heads: int = field(default=4, metadata=domain(1))
    num_rounds: int = field(default=3, metadata=domain(0))
    ffn_width: int = field(default=128, metadata=domain(1))
    # the decoder compares logits with logit(mask_threshold)
    mask_threshold: float = field(default=0.5, metadata=domain(0, 1, above=True, below=True))
    num_frequencies: int = field(default=6, metadata=domain(1))
    freq_base: float = field(default=2.0, metadata=domain(1, above=True))  # a geometric bank
    backbone_depth: int = field(default=4, metadata=domain(1))
    backbone_widths: tuple[int, ...] = field(default=(32, 64, 96, 128), metadata=domain(1))
    thing_classes: tuple[int, ...] = (1, 2)
    stuff_classes: tuple[int, ...] = (3, 4)
    query_seed: int = field(default=0, metadata=domain(0))

    def __post_init__(self):
        check_fields(self)
        if self.dim % self.num_heads != 0:
            raise ParameterError(
                f"dim {self.dim} is not divisible by {self.num_heads} heads"
            )
        if len(self.backbone_widths) != self.backbone_depth:
            raise ParameterError(
                f"got {len(self.backbone_widths)} widths for depth {self.backbone_depth}"
            )
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
