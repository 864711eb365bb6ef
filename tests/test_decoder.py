import numpy as np
import pytest

import panoptic4d.autodiff as ad
from panoptic4d.autodiff import Tensor
from panoptic4d.backbone import Backbone, seed_features
from panoptic4d.decoder import (
    DecoderBlock,
    FourierEncoder,
    MultiHeadAttention,
    QueryRefiner,
    fourier_features,
    init_queries,
    propagate_foreground,
)
from panoptic4d.errors import ParameterError
from panoptic4d.geometry import WindowContext, farthest_point_sampling
from panoptic4d.heads import MaskModule, MaskModuleOutput
from panoptic4d.model import ModelConfig

from oracles import finite_difference_check, greedy_fps, loop_propagate_foreground
from test_backbone import grid_from_points


CTX = WindowContext(
    extent_min=np.zeros(3), extent_max=np.full(3, 10.0), frame_lo=0, frame_hi=1
)


def small_setup(seed=0, depth=2, widths=(6, 8), dim=8, heads=2, rounds=1, nq=3, npts=25):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 10, size=(npts, 3))
    cloud, grid = grid_from_points(pts, voxel_size=1.0)
    cfg = ModelConfig(
        dim=dim,
        num_heads=heads,
        num_rounds=rounds,
        ffn_width=16,
        num_frequencies=2,
        backbone_depth=depth,
        backbone_widths=widths,
    )
    bb = Backbone(rng, cfg)
    enc = FourierEncoder(rng, cfg)
    refiner = QueryRefiner(rng, cfg)
    mask_module = MaskModule(rng, dim=dim, finest_width=widths[0], num_classes=2)
    bias = Tensor(rng.normal(size=dim), requires_grad=True)
    pyramid = bb.extract(grid, Tensor(seed_features(grid, CTX)))
    queries = init_queries(grid, nq, enc, bias, CTX, seed=0)
    return rng, grid, cfg, bb, enc, refiner, mask_module, bias, pyramid, queries


class TestFourier:
    def test_zero_phase(self):
        spatial, temporal = fourier_features(
            np.zeros((1, 3)), np.zeros(1), CTX, ModelConfig(num_frequencies=2, dim=8)
        )
        np.testing.assert_allclose(spatial[0, :6], 0.0, atol=1e-12)  # sin block
        np.testing.assert_allclose(spatial[0, 6:], 1.0, atol=1e-12)  # cos block
        np.testing.assert_allclose(temporal[0], [0, 0, 1, 1], atol=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        spatial, temporal = fourier_features(
            rng.uniform(0, 10, size=(50, 3)),
            rng.integers(0, 2, size=50),
            CTX,
            ModelConfig(num_frequencies=6, dim=16),
        )
        assert np.abs(spatial).max() <= 1.0 + 1e-12
        assert np.abs(temporal).max() <= 1.0 + 1e-12

    def test_temporal_only_difference(self):
        rng = np.random.default_rng(1)
        enc = FourierEncoder(rng, ModelConfig(num_frequencies=3, dim=8))
        pos = np.array([[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])
        out = enc(pos, np.array([0.0, 1.0]), CTX)
        spatial, _ = fourier_features(pos, np.array([0.0, 1.0]), CTX, enc.config)
        np.testing.assert_array_equal(spatial[0], spatial[1])
        # the projected encodings differ only through the temporal summand
        t_only = enc.temporal_proj(
            Tensor(fourier_features(pos, np.array([0.0, 1.0]), CTX, enc.config)[1])
        ).values
        diff = out.values[0] - out.values[1]
        np.testing.assert_allclose(diff, t_only[0] - t_only[1], atol=1e-12)


def seed_index(grid, seed):
    """The FPS start voxel that init_queries draws from its seed."""
    return int(np.random.Generator(np.random.PCG64(seed)).integers(grid.num_voxels))


def anchored_features(grid, anchors, enc, bias):
    """Query features of the given anchor voxels, computed as init_queries does."""
    return ad.add(enc(grid.voxel_centroids[anchors], grid.voxel_frame[anchors], CTX), bias)


class TestInitQueries:
    def test_exhaustion_and_determinism(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, _ = small_setup(npts=30)
        k0 = grid.num_voxels
        features = init_queries(grid, k0, enc, bias, CTX, seed=5)
        fps = farthest_point_sampling(grid.voxel_centroids, k0, seed_index(grid, 5))
        assert sorted(fps.tolist()) == list(range(k0))
        np.testing.assert_array_equal(
            features.values, anchored_features(grid, fps, enc, bias).values
        )
        a = init_queries(grid, 4, enc, bias, CTX, seed=7)
        b = init_queries(grid, 4, enc, bias, CTX, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_matches_fps_oracle(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, _ = small_setup(npts=30)
        expected = greedy_fps(grid.voxel_centroids, 5, seed_index(grid, 3))
        got = farthest_point_sampling(grid.voxel_centroids, 5, seed_index(grid, 3))
        assert got.tolist() == expected
        features = init_queries(grid, 5, enc, bias, CTX, seed=3)
        np.testing.assert_array_equal(
            features.values, anchored_features(grid, expected, enc, bias).values
        )

    def test_too_many_queries(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, _ = small_setup(npts=10)
        with pytest.raises(ParameterError):
            init_queries(grid, grid.num_voxels + 1, enc, bias, CTX)


class TestAttention:
    def test_all_true_mask_equals_unmasked(self):
        rng = np.random.default_rng(2)
        attn = MultiHeadAttention(rng, 8, 2)
        q = Tensor(rng.normal(size=(3, 8)))
        k = Tensor(rng.normal(size=(7, 8)))
        full = attn(q, k).values
        masked = attn(q, k, mask=np.ones((3, 7), dtype=bool)).values
        np.testing.assert_array_equal(full, masked)

    def test_single_allowed_key_copies_value(self):
        rng = np.random.default_rng(3)
        attn = MultiHeadAttention(rng, 8, 2)
        q = Tensor(rng.normal(size=(2, 8)))
        k = Tensor(rng.normal(size=(5, 8)))
        mask = np.zeros((2, 5), dtype=bool)
        mask[0, 3] = True
        mask[1, 3] = True
        out = attn(q, k, mask=mask).values
        v = attn.wv(k).values
        expected = v[3] @ attn.wo.w.values + attn.wo.b.values
        np.testing.assert_allclose(out[0], expected, atol=1e-12)
        np.testing.assert_allclose(out[1], expected, atol=1e-12)

    def test_empty_row_fallback_in_block(self):
        rng = np.random.default_rng(4)
        cfg = ModelConfig(dim=8, num_heads=2, num_rounds=1, ffn_width=16)
        block = DecoderBlock(rng, cfg)
        q = Tensor(rng.normal(size=(3, 8)))
        k = Tensor(rng.normal(size=(6, 8)))
        mask = np.ones((3, 6), dtype=bool)
        mask[1, :] = False  # must behave like an all-true row
        with_fallback = block.cross_attend(q, k, mask).values
        all_true = block.cross_attend(q, k, np.ones((3, 6), dtype=bool)).values
        np.testing.assert_array_equal(with_fallback[1], all_true[1])

    def test_attention_rows_sum_to_one_on_allowed(self):
        rng = np.random.default_rng(5)
        z = Tensor(rng.normal(size=(4, 6)))
        mask = rng.random((4, 6)) < 0.4
        mask[:, 2] = True
        # one head with identity keys and values: the output rows are the weights
        s = ad.attention(z, Tensor(np.eye(6)), Tensor(np.eye(6)), 1, mask).values
        np.testing.assert_allclose(s.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(s[~mask] == 0)

    def test_single_query_self_attention(self):
        rng = np.random.default_rng(6)
        attn = MultiHeadAttention(rng, 8, 2)
        q = Tensor(rng.normal(size=(1, 8)))
        out = attn(q, q).values
        v = attn.wv(q).values
        expected = v[0] @ attn.wo.w.values + attn.wo.b.values
        np.testing.assert_allclose(out[0], expected, atol=1e-12)

    def test_zero_value_projection_gives_residual_identity(self):
        rng = np.random.default_rng(7)
        cfg = ModelConfig(dim=8, num_heads=2, num_rounds=1, ffn_width=16)
        block = DecoderBlock(rng, cfg)
        block.self_attn.wv.w.values[...] = 0.0
        block.self_attn.wv.b.values[...] = 0.0
        block.self_attn.wo.b.values[...] = 0.0
        q = Tensor(rng.normal(size=(4, 8)))
        out = block.self_attend(q).values
        np.testing.assert_allclose(out, q.values, atol=1e-12)


class TestRefine:
    def test_zero_rounds(self):
        rng, grid, cfg0, bb, enc, refiner, mm, bias, pyramid, queries = small_setup()
        cfg = ModelConfig(
            dim=8, num_heads=2, num_rounds=0, ffn_width=16, backbone_depth=2, backbone_widths=(6, 8)
        )
        refiner0 = QueryRefiner(rng, cfg)
        outputs = refiner0.refine(queries, pyramid, mm, enc, CTX)
        assert len(outputs) == 1

    def test_output_count(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, queries = small_setup(
            rounds=2, depth=2
        )
        outputs = refiner.refine(queries, pyramid, mm, enc, CTX)
        assert len(outputs) == 2 * 2 + 1

    def test_all_foreground_equals_unmasked(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, queries = small_setup()

        class AllForeground:
            """Reports every voxel as foreground and keeps the real outputs."""

            def __init__(self, inner):
                self.inner = inner
                self.real = []

            def project(self, pyr):
                return self.inner.project(pyr)

            def __call__(self, features, projected_t):
                out = self.inner(features, projected_t)
                self.real.append(out)
                fg = Tensor(np.full(out.heatmap_logits.shape, 50.0))
                return MaskModuleOutput(fg, out.class_logits, out.boxes)

        fg_mm = AllForeground(mm)
        refiner.refine(queries, pyramid, fg_mm, enc, CTX)

        class Unmasked(QueryRefiner):
            def refine_unmasked(self, feats, pyramid, mask_module, encoder, ctx):
                keys = self.level_keys(pyramid, encoder, ctx)
                projected_t = mask_module.project(pyramid)
                outs = [mask_module(feats, projected_t)]
                for blocks in self.blocks:
                    for r in range(pyramid.depth - 1, -1, -1):
                        feats = blocks[r](feats, keys[r], None)
                        outs.append(mask_module(feats, projected_t))
                return outs

        um = Unmasked.__new__(Unmasked)
        um.config = refiner.config
        um.level_projs = refiner.level_projs
        um.blocks = refiner.blocks
        outs_b = um.refine_unmasked(queries, pyramid, mm, enc, CTX)
        assert len(fg_mm.real) == len(outs_b)
        for a, b in zip(fg_mm.real, outs_b):
            for name in ("heatmap_logits", "class_logits", "boxes"):
                np.testing.assert_allclose(
                    getattr(a, name).values, getattr(b, name).values, atol=1e-12
                )

    def test_query_permutation_equivariance(self):
        for seed in range(3):
            rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, queries = small_setup(
                seed=seed, nq=4
            )
            outputs = refiner.refine(queries, pyramid, mm, enc, CTX)
            perm = np.random.default_rng(seed).permutation(4)
            permuted = Tensor(queries.values[perm])
            outputs_p = refiner.refine(permuted, pyramid, mm, enc, CTX)
            assert len(outputs_p) == len(outputs)
            for out, out_p in zip(outputs, outputs_p):
                for name in ("heatmap_logits", "class_logits", "boxes"):
                    np.testing.assert_allclose(
                        getattr(out_p, name).values, getattr(out, name).values[perm], atol=1e-9
                    )

    def test_gradient_flows_to_backbone(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, queries = small_setup(npts=15)
        params = bb.parameters()
        some = {k: params[k] for k in list(params)[:2]}

        def loss():
            pyr = bb.extract(grid, Tensor(seed_features(grid, CTX)))
            qs = init_queries(grid, 3, enc, bias, CTX, seed=0)
            outputs = refiner.refine(qs, pyr, mm, enc, CTX)
            return ad.tmean(outputs[-1].heatmap_logits)

        err = finite_difference_check(loss, list(some.values()), h=1e-6)
        assert err < 1e-3

    def test_temporal_sensitivity(self):
        rng = np.random.default_rng(8)
        enc = FourierEncoder(rng, ModelConfig(num_frequencies=3, dim=8))
        pos = np.array([[1.0, 2.0, 3.0]])
        a = enc(pos, np.array([0.0]), CTX).values
        b = enc(pos, np.array([1.0]), CTX).values
        assert not np.allclose(a, b)


class TestPropagateForeground:
    def test_or_semantics(self):
        rng, grid, cfg, bb, enc, refiner, mm, bias, pyramid, queries = small_setup(npts=40)
        k0 = grid.num_voxels
        fg = np.zeros((2, k0), dtype=bool)
        fg[0, 0] = True
        up = propagate_foreground(fg, pyramid, 1)
        parent = pyramid.levels[0].parent_map
        assert up[0, parent[0]]
        assert up[1].sum() == 0
        # every foreground parent has at least one foreground child
        full = np.ones((1, k0), dtype=bool)
        np.testing.assert_array_equal(
            propagate_foreground(full, pyramid, 1),
            np.ones((1, pyramid.levels[1].coords.shape[0]), dtype=bool),
        )

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    def test_matches_maximum_at_loop(self, level, density):
        *_, pyramid, _ = small_setup(depth=3, widths=(6, 8, 10), npts=400)
        k0 = pyramid.levels[0].coords.shape[0]
        rng = np.random.default_rng(int(density * 100) + level)
        fg = rng.random((7, k0)) < density
        fg[0] = False
        fg[1] = True
        got = propagate_foreground(fg, pyramid, level)
        want = loop_propagate_foreground(fg, pyramid, level)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert (got == want).all()
        assert got is not fg
