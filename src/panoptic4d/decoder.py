"""Instance queries over space-time and their iterative refinement.

Queries are anchored at farthest-point-sampled voxel centroids. Each
refinement step walks the feature pyramid coarse to fine: cross-attention is
restricted to voxels the previous mask prediction considers foreground (with
full attention as the fallback for empty rows), followed by self-attention
between queries and a feed-forward block, all pre-norm residual.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .backbone import FeaturePyramid
from .errors import ParameterError, ShapeError
from .geometry import VoxelGrid, WindowContext, farthest_point_sampling
from .nn import MLP, LayerNorm, Linear, collect_parameters

if TYPE_CHECKING:
    from .heads import MaskModuleOutput
    from .model import ModelConfig


def fourier_features(
    positions: np.ndarray,
    frames: np.ndarray,
    ctx: WindowContext,
    config: ModelConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw sin/cos banks before projection: (spatial (n, 6F), temporal (n, 2F)).

    Positions and frame indices are normalized to [0, 1] by the window context,
    so every entry lies in [-1, 1].
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    p = ctx.normalize_positions(positions)
    t = ctx.normalize_frames(np.asarray(frames).reshape(-1))
    freqs = config.freq_base ** np.arange(config.num_frequencies)
    ang_p = 2.0 * np.pi * p[:, :, None] * freqs[None, None, :]  # (n, 3, F)
    spatial = np.concatenate(
        [np.sin(ang_p).reshape(len(p), -1), np.cos(ang_p).reshape(len(p), -1)], axis=1
    )
    ang_t = 2.0 * np.pi * t[:, None] * freqs[None, :]
    temporal = np.concatenate([np.sin(ang_t), np.cos(ang_t)], axis=1)
    return spatial, temporal


class FourierEncoder:
    """Projected spatio-temporal positional encoding: W_s @ spatial + W_t @ temporal."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig):
        self.config = config
        f = config.num_frequencies
        self.spatial_proj = Linear(rng, 6 * f, config.dim)
        self.temporal_proj = Linear(rng, 2 * f, config.dim)

    def __call__(self, positions: np.ndarray, frames: np.ndarray, ctx: WindowContext) -> Tensor:
        spatial, temporal = fourier_features(positions, frames, ctx, self.config)
        return ad.add(self.spatial_proj(Tensor(spatial)), self.temporal_proj(Tensor(temporal)))

    def parameters(self) -> dict[str, Tensor]:
        return collect_parameters({"spatial": self.spatial_proj, "temporal": self.temporal_proj})


class MultiHeadAttention:
    """Standard multi-head attention with an optional boolean key mask per query."""

    def __init__(self, rng: np.random.Generator, dim: int, num_heads: int):
        self.num_heads = num_heads
        self.wq = Linear(rng, dim, dim)
        self.wk = Linear(rng, dim, dim)
        self.wv = Linear(rng, dim, dim)
        self.wo = Linear(rng, dim, dim)

    def __call__(self, query_in: Tensor, key_in: Tensor, mask: np.ndarray | None = None) -> Tensor:
        q = self.wq(query_in)
        k = self.wk(key_in)
        v = self.wv(key_in)
        return self.wo(ad.attention(q, k, v, self.num_heads, mask))

    def parameters(self) -> dict[str, Tensor]:
        return collect_parameters({"wq": self.wq, "wk": self.wk, "wv": self.wv, "wo": self.wo})


class DecoderBlock:
    """One refinement step: masked cross-attention, self-attention, FFN (pre-norm)."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig):
        d = config.dim
        self.cross = MultiHeadAttention(rng, d, config.num_heads)
        self.self_attn = MultiHeadAttention(rng, d, config.num_heads)
        self.norm_cross = LayerNorm(d)
        self.norm_self = LayerNorm(d)
        self.norm_ffn = LayerNorm(d)
        self.ffn = MLP(rng, [d, config.ffn_width, d])

    def cross_attend(self, queries: Tensor, keys: Tensor, mask: np.ndarray | None) -> Tensor:
        """Masked cross-attention with a residual; a query whose mask row is
        empty attends to every key (`ad.attention`'s fallback)."""
        return ad.add(queries, self.cross(self.norm_cross(queries), keys, mask))

    def self_attend(self, queries: Tensor) -> Tensor:
        normed = self.norm_self(queries)
        return ad.add(queries, self.self_attn(normed, normed))

    def feed_forward(self, queries: Tensor) -> Tensor:
        return ad.add(queries, self.ffn(self.norm_ffn(queries)))

    def __call__(self, queries: Tensor, keys: Tensor, mask: np.ndarray | None) -> Tensor:
        queries = self.cross_attend(queries, keys, mask)
        queries = self.self_attend(queries)
        return self.feed_forward(queries)

    def parameters(self) -> dict[str, Tensor]:
        return collect_parameters(
            {
                "cross": self.cross,
                "self": self.self_attn,
                "ncross": self.norm_cross,
                "nself": self.norm_self,
                "nffn": self.norm_ffn,
                "ffn": self.ffn,
            }
        )


def init_queries(
    grid: VoxelGrid,
    num_queries: int,
    encoder: FourierEncoder,
    query_bias: Tensor,
    ctx: WindowContext,
    seed: int = 0,
) -> Tensor:
    """(N_q, D) query features: the positional encodings of FPS-selected voxel
    centroids (the anchors) plus a shared learned bias."""
    if num_queries > grid.num_voxels:
        raise ParameterError(
            f"{num_queries} queries requested but only {grid.num_voxels} voxels"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    seed_index = int(rng.integers(grid.num_voxels))
    anchors = farthest_point_sampling(grid.voxel_centroids, num_queries, seed_index)
    encoding = encoder(grid.voxel_centroids[anchors], grid.voxel_frame[anchors], ctx)
    return ad.add(encoding, query_bias)


def propagate_foreground(
    fg_finest: np.ndarray, pyramid: FeaturePyramid, level: int
) -> np.ndarray:
    """Lift a (N_q, K_0) boolean foreground map to level r: a coarse voxel is
    foreground for a query if any of its finest descendants is."""
    fg = np.array(fg_finest, dtype=bool)
    for r in range(level):
        parent = pyramid.levels[r].parent_map
        acc = np.zeros((fg.shape[0], pyramid.levels[r + 1].coords.shape[0]), dtype=bool)
        rows, cols = np.nonzero(fg)
        acc[rows, parent[cols]] = True
        fg = acc
    return fg


class QueryRefiner:
    """The full decoder: per-level key projections and per (round, level) blocks."""

    def __init__(self, rng: np.random.Generator, config: ModelConfig):
        self.config = config
        self.level_projs = [Linear(rng, w, config.dim) for w in config.backbone_widths]
        self.blocks = [
            [DecoderBlock(rng, config) for _ in config.backbone_widths]
            for _ in range(config.num_rounds)
        ]

    def parameters(self) -> dict[str, Tensor]:
        mods: dict[str, object] = {}
        for r, proj in enumerate(self.level_projs):
            mods[f"proj{r}"] = proj
        for i, round_blocks in enumerate(self.blocks):
            for r, block in enumerate(round_blocks):
                mods[f"round{i}.level{r}"] = block
        return collect_parameters(mods)

    def level_keys(self, pyramid: FeaturePyramid, encoder: FourierEncoder, ctx: WindowContext) -> list[Tensor]:
        keys = []
        for r, level in enumerate(pyramid.levels):
            pos = encoder(level.positions, level.frame, ctx)
            keys.append(ad.add(self.level_projs[r](level.features), pos))
        return keys

    def refine(
        self,
        features: Tensor,
        pyramid: FeaturePyramid,
        mask_module,
        encoder: FourierEncoder,
        ctx: WindowContext,
    ) -> list[MaskModuleOutput]:
        """Iteratively refine (N_q, D) query features; returns every mask output.

        Output count is num_rounds * num_levels + 1: the prediction from the
        initial queries plus one after every level step, for deep supervision.
        """
        if pyramid.depth != len(self.level_projs):
            raise ShapeError(
                f"pyramid depth {pyramid.depth} != decoder depth {len(self.level_projs)}"
            )
        keys = self.level_keys(pyramid, encoder, ctx)
        projected_t = mask_module.project(pyramid)
        outputs = [mask_module(features, projected_t)]
        # sigmoid(x) > tau is exactly x > logit(tau)
        tau = self.config.mask_threshold
        threshold_logit = np.log(tau / (1.0 - tau))
        for round_blocks in self.blocks:
            for r in range(pyramid.depth - 1, -1, -1):
                fg0 = outputs[-1].heatmap_logits.values > threshold_logit
                mask = propagate_foreground(fg0, pyramid, r)
                features = round_blocks[r](features, keys[r], mask)
                outputs.append(mask_module(features, projected_t))
        return outputs
