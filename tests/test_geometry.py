import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panoptic4d.errors import (
    ArityError,
    EmptyInstanceError,
    InvalidPoseError,
    ParameterError,
)
from panoptic4d.geometry import (
    ORTHONORMAL_TOL,
    LidarScan,
    Pose,
    SuperimposedCloud,
    WindowContext,
    farthest_point_sampling,
    first_occurrence_groups,
    pack_keys,
    rot_z,
    superimpose,
    trajectory_box,
    unique_rows_first_occurrence,
    voxelize,
)

from oracles import (
    floor_voxel_oracle,
    greedy_fps,
    loop_first_occurrence_groups,
    loop_unique_rows,
)


def make_cloud(points, frames=None):
    points = np.asarray(points, dtype=np.float64)
    scans, poses = [], []
    frames = frames if frames is not None else [0]
    per = len(points) // len(frames)
    for i, f in enumerate(frames):
        scans.append(LidarScan(points=points[i * per : (i + 1) * per], frame_index=f))
        poses.append(Pose.identity())
    return superimpose(scans, poses)


class TestPose:
    def test_pure_translation(self):
        out = Pose(np.eye(3), [1.0, 0.0, 0.0]).apply([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1.0, 0.0, 0.0]])

    def test_axis_rotation(self):
        out = Pose(rot_z(np.pi / 2), np.zeros(3)).apply([[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-9)

    def test_empty_scan(self):
        scan = LidarScan(points=np.zeros((0, 3)), frame_index=0)
        assert Pose.identity().apply(scan.points).shape == (0, 3)

    @pytest.mark.parametrize(
        "rotation, translation, message",
        [
            (np.eye(2), np.zeros(3), r"rotation must be 3x3, got \(2, 2\)"),
            (np.eye(3) * 2.0, np.zeros(3), "not orthonormal"),
            # orthonormal but determinant -1 (a reflection)
            (np.diag([1.0, 1.0, -1.0]), np.zeros(3), "determinant is not \\+1"),
            (np.eye(3), [0.0, np.inf, 0.0], "translation is not finite"),
            (np.eye(3), [np.nan, 0.0, 0.0], "translation is not finite"),
        ],
    )
    def test_each_rule_raises_on_construction(self, rotation, translation, message):
        with pytest.raises(InvalidPoseError, match=message):
            Pose(rotation, translation)

    def test_arrays_are_read_only_copies(self):
        rotation, translation = rot_z(0.3), np.array([1.0, 2.0, 3.0])
        pose = Pose(rotation, translation)
        rotation[0, 0] = translation[0] = 5.0
        assert pose.rotation[0, 0] == np.cos(0.3) and pose.translation[0] == 1.0
        for arr in (pose.rotation, pose.translation, pose.inverse().rotation):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_are_rebuilt_through_the_constructor(self, clone):
        pose = Pose(rot_z(0.3), [1.0, 2.0, 3.0])
        twin = clone(pose)
        np.testing.assert_array_equal(twin.rotation, pose.rotation)
        np.testing.assert_array_equal(twin.translation, pose.translation)
        assert not twin.rotation.flags.writeable and not twin.translation.flags.writeable

    def test_orthonormality_check_is_np_allclose(self):
        # perturbations straddle the tolerance; a few entries are non-finite
        rng = np.random.default_rng(0)
        for i in range(3000):
            r = rot_z(rng.uniform(0.0, 2.0 * np.pi))
            r = r + rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-8.0, -4.0)
            if i % 100 == 0:
                r[i % 3, (i // 3) % 3] = (np.nan, np.inf, -np.inf)[(i // 100) % 3]
            want = np.allclose(r.T @ r, np.eye(3), atol=ORTHONORMAL_TOL)
            try:
                Pose(r, np.zeros(3))
                accepted = True
            except InvalidPoseError as exc:
                accepted = "orthonormal" not in str(exc)
            assert accepted == want


class TestSuperimpose:
    def test_concatenation_order(self):
        scans = [
            LidarScan(points=np.random.default_rng(0).normal(size=(3, 3)), frame_index=0),
            LidarScan(points=np.random.default_rng(1).normal(size=(3, 3)), frame_index=1),
        ]
        cloud = superimpose(scans, [Pose.identity(), Pose.identity()])
        assert cloud.num_points == 6
        assert cloud.frame_of.tolist() == [0, 0, 0, 1, 1, 1]
        np.testing.assert_array_equal(cloud.points, np.concatenate([s.points for s in scans]))

    def test_identity_preserves_points(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        cloud = superimpose([LidarScan(points=pts, frame_index=0)], [Pose.identity()])
        np.testing.assert_array_equal(cloud.points, pts)

    def test_translated_scans(self):
        origin = LidarScan(points=[[0.0, 0.0, 0.0]], frame_index=0)
        shifted = LidarScan(points=[[0.0, 0.0, 0.0]], frame_index=1)
        cloud = superimpose(
            [origin, shifted],
            [Pose.identity(), Pose(np.eye(3), [2.0, 0.0, 0.0])],
        )
        np.testing.assert_allclose(cloud.points, [[0, 0, 0], [2, 0, 0]])

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            superimpose([LidarScan(points=[[0.0, 0.0, 0.0]], frame_index=0)], [])

    def test_rigid_transform_preserves_distances(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(20, 3))
        scan = LidarScan(points=pts, frame_index=0)
        pose = Pose(rot_z(0.71), [3.0, -1.0, 0.5])
        cloud = superimpose([scan], [pose])
        d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d_after = np.linalg.norm(
            cloud.points[:, None] - cloud.points[None, :], axis=2
        )
        np.testing.assert_allclose(d_before, d_after, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_scan_rejects_non_finite_point_naming_frame_and_point(self, bad):
        pts = np.ones((4, 3))
        pts[2, 1] = bad
        pts[3, 0] = np.nan
        with pytest.raises(ParameterError, match=rf"frame 5: point 2 \[1.0, {bad}, 1.0\] is not finite"):
            LidarScan(points=pts, frame_index=5)
        with pytest.raises(ParameterError, match=r"frame 0: point 0 \[nan, 0.0, inf\]"):
            LidarScan(points=[[np.nan, 0, np.inf]], frame_index=0)


class TestLidarScanIsFrozen:
    def scan(self):
        labels = np.arange(5)
        return LidarScan(points=np.ones((5, 3)), frame_index=7, semantic=labels, instance=labels % 2)

    def test_points_are_a_read_only_copy(self):
        points = np.ones((5, 3))
        scan = LidarScan(points=points, frame_index=7)
        points[2, 1] = np.nan
        assert np.isfinite(scan.points).all()
        with pytest.raises(ValueError, match="read-only"):
            scan.points[2, 1] = np.nan

    @pytest.mark.parametrize("name", ["points", "frame_index", "semantic", "instance"])
    def test_fields_cannot_be_rebound(self, name):
        scan = self.scan()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scan, name, getattr(scan, name))

    def test_labels_stay_writable(self):
        scan = self.scan()
        scan.semantic[0] = scan.instance[0] = 9
        assert scan.semantic[0] == scan.instance[0] == 9

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda s: pickle.loads(pickle.dumps(s)),
            lambda s: dataclasses.replace(s, frame_index=8),
        ],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_every_copy_has_checked_read_only_points(self, clone):
        scan = self.scan()
        twin = clone(scan)
        np.testing.assert_array_equal(twin.points, scan.points)
        np.testing.assert_array_equal(twin.semantic, scan.semantic)
        assert not twin.points.flags.writeable
        assert twin.semantic.flags.writeable and twin.instance.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            twin.points[0, 0] = np.nan

    def test_non_finite_points_through_any_copy_raise(self):
        scan = self.scan()
        bad = scan.points.copy()
        bad[2, 1] = np.nan
        message = r"frame 7: point 2 \[1.0, nan, 1.0\] is not finite"
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(scan, points=bad)
        with pytest.raises(ParameterError, match=message):
            # the memo hands deepcopy the corrupted array in place of the points
            copy.deepcopy(scan, memo={id(scan.points): bad})
        marked = scan.points.copy()
        marked[2, 1] = 1234.5
        payload = pickle.dumps(dataclasses.replace(scan, points=marked))
        value = np.float64(1234.5).tobytes()
        assert payload.count(value) == 1
        with pytest.raises(ParameterError, match=message):
            pickle.loads(payload.replace(value, np.float64(np.nan).tobytes()))


class TestVoxelize:
    def test_shared_voxel(self):
        cloud = make_cloud([[0.01, 0.02, 0.03], [0.04, 0.04, 0.04]])
        grid = voxelize(cloud, 0.05)
        assert grid.num_voxels == 1
        assert grid.voxel_coords.tolist() == [[0, 0, 0]]

    @pytest.mark.parametrize("x", [2.0**63 * 0.05, -(2.0**63) * 0.05, 1e300])
    def test_point_beyond_int64_voxels_rejected(self, x):
        cloud = make_cloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, x, 0.0]], frames=[3, 4])
        with pytest.raises(ParameterError, match=r"frame 4: point 1 \[0.0, .*\] .* size 0.05"):
            voxelize(cloud, 0.05)

    def test_largest_fitting_coordinate_accepted(self):
        below = np.nextafter(2.0**63, 0.0)
        grid = voxelize(make_cloud([[below, -below, 0.0]]), 1.0)
        assert grid.voxel_coords.tolist() == [[int(below), -int(below), 0]]

    def test_negative_floor(self):
        cloud = make_cloud([[0.12, 0.0, -0.07]])
        grid = voxelize(cloud, 0.05)
        assert grid.voxel_coords.tolist() == [[2, 0, -2]]

    def test_floor_oracle_random(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5, 5, size=(100, 3))
        cloud = make_cloud(pts)
        for size in (1e9, 0.7, 0.05):
            grid = voxelize(cloud, size)
            expected = floor_voxel_oracle(pts, size)
            got = [tuple(grid.voxel_coords[v]) for v in grid.point_to_voxel]
            assert got == expected
            assert grid.num_voxels == len(set(expected))

    def test_huge_voxel_collapses(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.1, 5, size=(100, 3))  # strictly positive octant
        grid = voxelize(make_cloud(pts), 1e9)
        assert grid.num_voxels == 1

    def test_round_trip_membership(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(60, 3))
        grid = voxelize(make_cloud(pts), 0.5)
        # every voxel has members, and every point lies in the voxel it maps to
        assert sorted(set(grid.point_to_voxel.tolist())) == list(range(grid.num_voxels))
        for i, v in enumerate(grid.point_to_voxel):
            assert tuple(grid.voxel_coords[v]) == tuple(np.floor(pts[i] / 0.5).astype(int))

    def test_translation_consistency(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-3, 3, size=(50, 3))
        size = 0.4
        g1 = voxelize(make_cloud(pts), size)
        shift = np.array([3, -2, 5])
        g2 = voxelize(make_cloud(pts + shift * size), size)
        assert g2.num_voxels == g1.num_voxels
        np.testing.assert_array_equal(g2.voxel_coords, g1.voxel_coords + shift)
        np.testing.assert_array_equal(g2.point_to_voxel, g1.point_to_voxel)

    def test_centroids_are_member_means(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(40, 3))
        cloud = make_cloud(pts)
        grid = voxelize(cloud, 0.5)
        for v in range(grid.num_voxels):
            members = np.flatnonzero(grid.point_to_voxel == v)
            np.testing.assert_allclose(grid.voxel_centroids[v], pts[members].mean(axis=0))

    def test_bad_voxel_size(self):
        with pytest.raises(ParameterError):
            voxelize(make_cloud([[0.0, 0.0, 0.0]]), 0.0)

    @pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_size(self, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(ParameterError, match="voxel_size must be positive and finite"):
                voxelize(make_cloud([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), size)


def _row_cases() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(17)
    cases = {
        "empty": np.zeros((0, 3), dtype=np.int64),
        "one": np.array([[4, -2, 7]]),
        "all_equal": np.tile([[1, 2, 3]], (9, 1)),
        "negative": rng.integers(-4, 0, size=(200, 3)),
        "huge": rng.integers(-1, 2, size=(150, 3)) * 10**9,
        "int64_extremes": rng.choice(
            [np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max], size=(120, 3)
        ),
    }
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=2.0, size=(int(rng.integers(1, 3000)), 3))
        cases[f"cloud{seed}"] = np.floor(pts / 0.3).astype(np.int64)
    cases["duplicates"] = np.repeat(cases["cloud0"][:50], 4, axis=0)[::-1]
    return cases


ROW_CASES = _row_cases()


def bare_cloud(points, frames=None):
    """A cloud straight from global-frame points, frame 0 unless given."""
    n = len(points)
    frames = np.zeros(n, dtype=np.int64) if frames is None else frames
    return SuperimposedCloud(points, frames)


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_unique_rows_match_loop_oracle(case):
    coords = ROW_CASES[case]
    rows, inverse = unique_rows_first_occurrence(coords)
    want_rows, want_inverse = loop_unique_rows(coords)
    assert rows.shape == want_rows.shape and rows.dtype == want_rows.dtype
    assert inverse.shape == want_inverse.shape and inverse.dtype == want_inverse.dtype
    assert (rows == want_rows).all() and (inverse == want_inverse).all()


INT64 = np.iinfo(np.int64)
# small values repeat often; the extremes make the ranges too wide for int64
# keys, so pack_keys falls back to ranks
int64s = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(2**62), 2**62, int(INT64.min), int(INT64.max)]),
    st.integers(int(INT64.min), int(INT64.max)),
)


@settings(max_examples=300)
@given(st.lists(st.tuples(int64s, int64s), max_size=40))
@example([])
@example([(5, -7)])
@example([(-3, -1), (-3, -2), (-4, 9)])
@example([(1, 2), (1, 2), (0, 2), (1, 2)])
@example([(2**62, -(2**62)), (-(2**62), 2**62), (0, 0)])
@example([(int(INT64.min), int(INT64.max)), (int(INT64.max), int(INT64.min)), (0, 0)])
def test_pack_keys_are_collision_free_ordered_and_invertible(pairs):
    major = np.array([a for a, _ in pairs], dtype=np.int64)
    minor = np.array([b for _, b in pairs], dtype=np.int64)
    keys, unpack = pack_keys(major, minor)
    assert keys.dtype == np.int64 and keys.shape == (len(pairs),)
    assert len(set(keys.tolist())) == len(set(pairs))
    # with distinct keys for distinct pairs, sorting by key sorts the pairs
    assert [pairs[i] for i in np.argsort(keys, kind="stable")] == sorted(pairs)
    back_major, back_minor = unpack(keys)
    assert back_major.tolist() == major.tolist() and back_minor.tolist() == minor.tolist()


@settings(max_examples=200)
@given(arrays(np.int64, st.tuples(st.integers(0, 30), st.just(3)), elements=int64s))
def test_unique_rows_fold_matches_loop_oracle(coords):
    rows, inverse = unique_rows_first_occurrence(coords)
    want_rows, want_inverse = loop_unique_rows(coords)
    assert rows.shape == want_rows.shape and (rows == want_rows).all()
    assert inverse.dtype == want_inverse.dtype and (inverse == want_inverse).all()


@settings(max_examples=200)
@given(arrays(np.int64, st.integers(0, 40), elements=int64s))
def test_first_occurrence_groups_match_dict_loop(keys):
    first, group = first_occurrence_groups(keys)
    want_first, want_group = loop_first_occurrence_groups(keys)
    assert first.tolist() == want_first and group.tolist() == want_group


@pytest.mark.parametrize(
    "points, size",
    [
        (np.zeros((0, 3)), 0.5),
        (np.array([[0.3, -0.2, 7.0]]), 0.5),
        (np.array([[1e9, -1e9, 0.5], [1e9, -1e9, 0.7], [-1e9, 1e9, 0.0]]), 1.0),
        (np.random.default_rng(3).uniform(-5, -1, size=(300, 3)), 0.25),
    ],
    ids=["empty", "one", "plus_minus_1e9", "negative"],
)
def test_voxelize_edge_cases_match_loop_oracle(points, size):
    grid = voxelize(bare_cloud(points), size)
    rows, inverse = loop_unique_rows(np.floor(points / size).astype(np.int64))
    assert (grid.voxel_coords == rows).all() and grid.voxel_coords.shape == rows.shape
    assert (grid.point_to_voxel == inverse).all() and grid.point_to_voxel.shape == inverse.shape


@settings(max_examples=200)
@given(
    pts=arrays(
        np.float64,
        st.tuples(st.integers(1, 80), st.just(3)),
        elements=st.one_of(
            st.floats(-6, 6),
            st.integers(-24, 24).map(lambda k: k * 0.25),  # voxel faces
        ),
    ),
    size=st.sampled_from([0.25, 0.5, 1.0, 1.3]),
)
def test_voxelize_properties(pts, size):
    frames = np.arange(len(pts)) % 3
    grid = voxelize(bare_cloud(pts, frames), size)
    coords = np.floor(pts / size).astype(np.int64)
    # membership is floor(p / size), rows unique, voxels in first-occurrence order
    assert (grid.voxel_coords[grid.point_to_voxel] == coords).all()
    assert len({tuple(r) for r in grid.voxel_coords.tolist()}) == grid.num_voxels
    firsts = [int(np.flatnonzero(grid.point_to_voxel == v)[0]) for v in range(grid.num_voxels)]
    assert firsts == sorted(firsts)
    # centroids and mean frames are the member means, summed in point order
    for v in range(grid.num_voxels):
        members = np.flatnonzero(grid.point_to_voxel == v).tolist()
        for axis in range(3):
            total = 0.0
            for i in members:
                total += pts[i, axis]
            assert grid.voxel_centroids[v, axis] == total / len(members)
        assert grid.voxel_frame[v] == float(sum(frames[members])) / len(members)


class TestFarthestPointSampling:
    def test_collinear(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        assert set(farthest_point_sampling(pts, 2, 0).tolist()) == {0, 2}

    def test_exhaustion(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 3))
        idx = farthest_point_sampling(pts, 6, 3)
        assert sorted(idx.tolist()) == list(range(6))
        assert idx[0] == 3

    def test_matches_greedy_oracle(self):
        rng = np.random.default_rng(21)
        pts = rng.uniform(size=(20, 3))
        got = farthest_point_sampling(pts, 5, 0).tolist()
        assert got == greedy_fps(pts, 5, 0)

    def test_permutation_independent_selection(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(size=(15, 3))
        base = farthest_point_sampling(pts, 4, 2)
        perm = rng.permutation(15)
        inv = np.empty(15, dtype=int)
        inv[perm] = np.arange(15)
        permuted = farthest_point_sampling(pts[perm], 4, int(inv[2]))
        # same geometric points selected
        np.testing.assert_allclose(
            np.sort(pts[base], axis=0), np.sort(pts[perm][permuted], axis=0)
        )

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            farthest_point_sampling(np.zeros((3, 3)), 4, 0)


class TestTrajectoryBox:
    CTX = WindowContext(np.zeros(3), np.full(3, 10.0), 0, 0)

    def test_basic_arithmetic(self):
        box = trajectory_box([[0.0, 0, 0], [2.0, 4.0, 6.0]], self.CTX)
        assert box.shape == (6,) and box.dtype == np.float64
        np.testing.assert_allclose(box[:3], [0.1, 0.2, 0.3])
        np.testing.assert_allclose(box[3:], [0.2, 0.4, 0.6])

    def test_single_point(self):
        box = trajectory_box([[5.0, 5.0, 5.0]], self.CTX)
        np.testing.assert_allclose(box[:3], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(box[3:], [0.0, 0.0, 0.0])

    def test_full_span(self):
        box = trajectory_box([[0.0, 0, 0], [10.0, 10, 10]], self.CTX)
        np.testing.assert_allclose(box[:3], [0.5, 0.5, 0.5])
        np.testing.assert_allclose(box[3:], [1.0, 1.0, 1.0])

    def test_errors(self):
        with pytest.raises(EmptyInstanceError):
            trajectory_box(np.zeros((0, 3)), self.CTX)

    def test_zero_size_axis_uses_the_context_floor(self):
        """A planar window (one axis of zero size) gives finite boxes, scaled
        by the same floored extent that normalizes the positions."""
        ctx = WindowContext(np.zeros(3), np.array([2.0, 4.0, 0.0]), 0, 0)
        box = trajectory_box([[0.0, 0, 0], [1.0, 2.0, 0.0]], ctx)
        np.testing.assert_array_equal(box, [0.25, 0.25, 0.0, 0.5, 0.5, 0.0])
        np.testing.assert_array_equal(ctx.extent_size, [2.0, 4.0, 1e-12])
