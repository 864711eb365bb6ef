import numpy as np
import pytest

from panoptic4d.autodiff import Tensor, tsum, mul
from panoptic4d.backbone import Backbone, seed_features
from panoptic4d.errors import ParameterError, ShapeError
from panoptic4d.geometry import LidarScan, Pose, WindowContext, superimpose, voxelize
from panoptic4d.model import ModelConfig

from oracles import finite_difference_check, loop_pyramid_geometry


def grid_from_points(pts, voxel_size=1.0, frames=None):
    pts = np.asarray(pts, dtype=np.float64)
    if frames is None:
        scans = [LidarScan(points=pts, frame_index=0)]
        poses = [Pose.identity()]
    else:
        scans, poses = [], []
        for f, chunk in zip(frames, pts):
            scans.append(LidarScan(points=chunk, frame_index=f))
            poses.append(Pose.identity())
    cloud = superimpose(scans, poses)
    return cloud, voxelize(cloud, voxel_size)


def frame_context(lo=0, hi=0):
    """A window context over frames lo..hi; seed_features reads only those."""
    return WindowContext(np.zeros(3), np.ones(3), lo, hi)


class TestSeedFeatures:
    def test_corner_point_zero_offset(self):
        _, grid = grid_from_points([[2.0, 3.0, -1.0]])
        seed = seed_features(grid, frame_context())
        np.testing.assert_allclose(seed[0, :3], [0.0, 0.0, 0.0])

    def test_single_frame_time_feature_zero(self):
        _, grid = grid_from_points([[0.3, 0.3, 0.3]])
        seed = seed_features(grid, frame_context())
        assert seed[0, 3] == 0.0

    def test_translation_invariance(self):
        offsets = np.array([[0.25, 0.5, 0.75], [0.1, 0.9, 0.4]])
        _, g1 = grid_from_points(offsets)
        _, g2 = grid_from_points(offsets + np.array([7.0, -3.0, 2.0]))
        np.testing.assert_allclose(
            seed_features(g1, frame_context()), seed_features(g2, frame_context()), atol=1e-12
        )

    def test_time_feature_spans_the_context_frames(self):
        pts = np.array([[[0.1, 0.1, 0.1]], [[1.5, 0.1, 0.1]], [[3.5, 0.1, 0.1]]])
        _, grid = grid_from_points(pts, frames=[2, 3, 5])
        seed = seed_features(grid, frame_context(2, 5))
        assert seed[:, 3].tolist() == [0.0, 1 / 3, 1.0]

    def test_count_feature_log_scaled(self):
        _, grid = grid_from_points([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3]])
        seed = seed_features(grid, frame_context())
        assert seed[0, 4] == pytest.approx(np.log1p(3))


class TestExtract:
    def test_depth_one_is_single_transform(self):
        rng = np.random.default_rng(0)
        _, grid = grid_from_points(rng.uniform(0, 5, size=(12, 3)))
        bb = Backbone(rng, ModelConfig(backbone_depth=1, backbone_widths=(7,)))
        seed = Tensor(seed_features(grid, frame_context()))
        pyr = bb.extract(grid, seed)
        assert pyr.depth == 1
        assert pyr.levels[0].features.shape == (grid.num_voxels, 7)
        assert pyr.levels[0].parent_map is None

    def test_identity_mean_pooling(self):
        # two voxels with scalar features 1 and 3 pooled into one parent -> 2
        rng = np.random.default_rng(1)
        _, grid = grid_from_points([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        assert grid.num_voxels == 2
        bb = Backbone(rng, ModelConfig(backbone_depth=2, backbone_widths=(1, 1)))
        # make every MLP an identity on positive inputs
        for mlp in bb.encoders + bb.decoders:
            for layer in mlp.layers:
                n_in, n_out = layer.w.shape
                layer.w.values[...] = np.eye(n_in, n_out)
                layer.b.values[...] = 0.0
        seed = Tensor(np.array([[1.0, 0, 0, 0, 0], [3.0, 0, 0, 0, 0]]))
        pyr = bb.extract(grid, seed)
        np.testing.assert_allclose(pyr.levels[1].features.values, [[2.0]])

    def test_parent_coords_follow_halving_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-20, 20, size=(200, 3))
        _, grid = grid_from_points(pts, voxel_size=1.0)
        bb = Backbone(rng, ModelConfig(backbone_depth=3, backbone_widths=(4, 5, 6)))
        pyr = bb.extract(grid, Tensor(seed_features(grid, frame_context())))
        for r in range(3):
            expected = {tuple(c) for c in grid.voxel_coords // (2**r)}
            got = {tuple(c) for c in pyr.levels[r].coords}
            assert got == expected
            assert pyr.levels[r].coords.shape[0] == len(expected)
        for r in range(2):
            child = pyr.levels[r].coords
            parent = pyr.levels[r + 1].coords
            pm = pyr.levels[r].parent_map
            np.testing.assert_array_equal(child // 2, parent[pm])

    @pytest.mark.parametrize("seed", range(3))
    def test_levels_match_pooling_loop(self, seed):
        rng = np.random.default_rng(10 + seed)
        pts = rng.uniform(-9, 9, size=(3, 60, 3))
        cloud, grid = grid_from_points(pts, voxel_size=0.7, frames=[2, 3, 5])
        bb = Backbone(rng, ModelConfig(backbone_depth=4, backbone_widths=(3, 3, 3, 3)))
        pyr = bb.extract(grid, Tensor(seed_features(grid, frame_context(2, 5))))
        coords, parent_maps, positions, frames = loop_pyramid_geometry(cloud, 0.7, 4)
        for r, level in enumerate(pyr.levels):
            assert np.array_equal(level.coords, coords[r])
            assert np.array_equal(level.positions, positions[r])
            assert np.array_equal(level.frame, frames[r])
            if r < 3:
                assert np.array_equal(level.parent_map, parent_maps[r])
            else:
                assert level.parent_map is None is parent_maps[r]

    def test_k_r_non_increasing_and_even_translation_invariant(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 16, size=(80, 3))
        _, g1 = grid_from_points(pts, voxel_size=1.0)
        _, g2 = grid_from_points(pts + 4.0, voxel_size=1.0)  # shift by 4 voxels
        bb = Backbone(rng, ModelConfig(backbone_depth=3, backbone_widths=(4, 4, 4)))
        p1 = bb.extract(g1, Tensor(seed_features(g1, frame_context())))
        p2 = bb.extract(g2, Tensor(seed_features(g2, frame_context())))
        k1 = [lvl.coords.shape[0] for lvl in p1.levels]
        k2 = [lvl.coords.shape[0] for lvl in p2.levels]
        assert k1 == k2
        assert all(k1[r] >= k1[r + 1] for r in range(2))

    def test_differentiable_end_to_end(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 6, size=(20, 3))
        _, grid = grid_from_points(pts, voxel_size=1.0)
        bb = Backbone(rng, ModelConfig(backbone_depth=2, backbone_widths=(3, 4)))
        params = list(bb.parameters().values())
        seed = Tensor(seed_features(grid, frame_context()))

        def loss():
            pyr = bb.extract(grid, seed)
            total = None
            for lvl in pyr.levels:
                w = np.sin(np.arange(lvl.features.size)).reshape(lvl.features.shape)
                term = tsum(mul(lvl.features, w))
                total = term if total is None else total + term
            return total

        err = finite_difference_check(loss, params, h=1e-6)
        assert err < 1e-3

    def test_seed_shape_mismatch(self):
        rng = np.random.default_rng(5)
        _, grid = grid_from_points(rng.uniform(0, 5, size=(10, 3)))
        bb = Backbone(rng, ModelConfig(backbone_depth=1, backbone_widths=(4,)))
        with pytest.raises(ShapeError):
            bb.extract(grid, Tensor(np.zeros((3, 5))))

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            ModelConfig(backbone_depth=2, backbone_widths=(4,))
        with pytest.raises(ParameterError):
            ModelConfig(backbone_depth=0, backbone_widths=())
