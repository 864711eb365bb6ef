"""Multi-scale voxel feature extractor.

A U-shaped pooling/MLP network over integer voxel coordinates: the encoder
repeatedly merges voxels into parents at 2x coarser coordinates (mean over
children, then a learned transform), the decoder broadcasts coarse features
back to children and fuses them with the encoder skip. The output is one
feature set per resolution with the finest level refined last, behind an
interface that a convolutional backbone could also satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .geometry import VoxelGrid, WindowContext, pool_coords
from .nn import MLP, collect_parameters

if TYPE_CHECKING:
    from .model import ModelConfig

SEED_DIM = 5  # corner offset (3) + normalized mean frame + log member count


@dataclass
class PyramidLevel:
    coords: np.ndarray  # (K_r, 3) int voxel coordinates at this resolution
    features: Tensor  # (K_r, D_r)
    positions: np.ndarray  # (K_r, 3) meters, mean of member voxel centroids
    frame: np.ndarray  # (K_r,) mean frame index
    parent_map: np.ndarray | None  # (K_r,) index into the next coarser level


@dataclass
class FeaturePyramid:
    """levels[0] is the finest resolution and aligns 1:1 with the VoxelGrid."""

    levels: list[PyramidLevel]

    @property
    def depth(self) -> int:
        return len(self.levels)


def seed_features(grid: VoxelGrid, ctx: WindowContext) -> np.ndarray:
    """Per-voxel input features: position inside the voxel, time, and density.

    The geometric part is translation invariant (offset of the centroid from
    the voxel corner, in voxel units); the mean frame index is normalized to
    [0, 1] over the window's frame span; the member count enters log-scaled.
    """
    corner = grid.voxel_coords * grid.voxel_size
    offset = (grid.voxel_centroids - corner) / grid.voxel_size
    frame_feat = (grid.voxel_frame - ctx.frame_lo) / ctx.frame_span
    counts = np.bincount(grid.point_to_voxel, minlength=grid.num_voxels).astype(np.float64)
    return np.column_stack([offset, frame_feat, np.log1p(counts)])


class Backbone:
    def __init__(self, rng: np.random.Generator, config: ModelConfig):
        self.config = config
        widths = config.backbone_widths
        self.encoders = []
        prev = SEED_DIM
        for w in widths:
            self.encoders.append(MLP(rng, [prev, w, w]))
            prev = w
        # One fuse MLP per non-coarsest level: concat(skip, parent) -> width.
        self.decoders = [
            MLP(rng, [widths[r] + widths[r + 1], widths[r], widths[r]])
            for r in range(config.backbone_depth - 1)
        ]

    def parameters(self) -> dict[str, Tensor]:
        mods: dict[str, object] = {}
        for r, enc in enumerate(self.encoders):
            mods[f"enc{r}"] = enc
        for r, dec in enumerate(self.decoders):
            mods[f"dec{r}"] = dec
        return collect_parameters(mods)

    def extract(self, grid: VoxelGrid, seed: Tensor) -> FeaturePyramid:
        if seed.shape[0] != grid.num_voxels:
            raise ShapeError(
                f"seed has {seed.shape[0]} rows for {grid.num_voxels} voxels"
            )
        depth = self.config.backbone_depth

        coords = [grid.voxel_coords]
        positions = [grid.voxel_centroids]
        frames = [grid.voxel_frame]
        parent_maps: list[np.ndarray] = []
        for r in range(1, depth):
            parents, inverse, pos, frame = pool_coords(
                coords[r - 1] // 2, positions[r - 1], frames[r - 1]
            )
            coords.append(parents)
            parent_maps.append(inverse)
            positions.append(pos)
            frames.append(frame)

        encoded = [self.encoders[0](seed)]
        for r in range(1, depth):
            pooled = ad.segment_mean(encoded[r - 1], parent_maps[r - 1], coords[r].shape[0])
            encoded.append(self.encoders[r](pooled))

        decoded = [None] * depth
        decoded[depth - 1] = encoded[depth - 1]
        for r in range(depth - 2, -1, -1):
            broadcast = ad.gather_rows(decoded[r + 1], parent_maps[r])
            decoded[r] = self.decoders[r](ad.concat([encoded[r], broadcast], axis=1))

        levels = []
        for r in range(depth):
            levels.append(
                PyramidLevel(
                    coords=coords[r],
                    features=decoded[r],
                    positions=positions[r],
                    frame=frames[r],
                    parent_map=parent_maps[r] if r < depth - 1 else None,
                )
            )
        return FeaturePyramid(levels=levels)
