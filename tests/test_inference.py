import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from panoptic4d.autodiff import Tensor
from panoptic4d.errors import CapacityError, ContractError, ParameterError, ShapeError
from panoptic4d.geometry import LidarScan, Pose, superimpose, voxelize
from panoptic4d.heads import MaskModuleOutput
import panoptic4d.inference as inference
from panoptic4d.inference import (
    dbscan,
    extract_panoptic,
    frame_labels,
    run_sequence,
    split_non_compact,
    stitch,
)
from panoptic4d.metrics import SequenceLabels
from panoptic4d.sequence import ClassMap, ScanSequence

from oracles import (
    brute_force_max_assignment,
    loop_extract_points,
    loop_frame_labels,
    loop_split_non_compact,
    per_frame_predictor,
    per_frame_run_sequence,
    quadratic_dbscan,
    reference_dbscan,
    two_path_run_sequence,
)

CM = ClassMap(thing_ids=(1, 2), stuff_ids=(3,))


def window_from_points(pts, frames):
    """One scan per frame, pts split evenly."""
    pts = np.asarray(pts, dtype=np.float64)
    per = len(pts) // len(frames)
    scans, poses = [], []
    for i, f in enumerate(frames):
        scans.append(LidarScan(points=pts[i * per : (i + 1) * per], frame_index=f))
        poses.append(Pose.identity())
    cloud = superimpose(scans, poses)
    return cloud, voxelize(cloud, 1.0)


def output_for(grid, heat, cls):
    return MaskModuleOutput(
        heatmap_logits=Tensor(np.asarray(heat, dtype=np.float64)),
        class_logits=Tensor(np.asarray(cls, dtype=np.float64)),
        boxes=Tensor(np.full((np.asarray(heat).shape[0], 6), 0.5)),
    )


class TestExtractPanoptic:
    def test_confidence_argmax(self):
        pts = np.array([[0.5, 0.5, 0.5]])
        cloud, grid = window_from_points(pts, [0])
        # two queries, one voxel: 0.9 * 0.8 vs 0.6 * 0.9
        heat = np.array([[np.log(0.8 / 0.2)], [np.log(0.9 / 0.1)]])
        conf = lambda p: np.log(np.array(p))
        cls = np.stack([conf([0.9, 0.05, 0.03, 0.02]), conf([0.6, 0.3, 0.05, 0.05])])
        sem, inst = extract_panoptic(output_for(grid, heat, cls), grid, CM)
        assert sem.tolist() == [1]
        assert inst.tolist() == [1]  # first included thing query

    def test_single_query_degenerate(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 5, size=(20, 3))
        cloud, grid = window_from_points(pts, [0, 1])
        heat = rng.normal(size=(1, grid.num_voxels))
        cls = np.array([[4.0, 0.0, 0.0, -2.0]])
        sem, inst = extract_panoptic(output_for(grid, heat, cls), grid, CM)
        assert sem.shape == inst.shape == (20,)
        assert np.all(sem == 1)
        assert np.all(inst == 1)

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 6, size=(60, 3))
        cloud, grid = window_from_points(pts, [0, 1])
        nq = 5
        heat = rng.normal(size=(nq, grid.num_voxels))
        cls = rng.normal(size=(nq, 4))
        out = output_for(grid, heat, cls)
        got = extract_panoptic(out, grid, CM)

        # independent recomputation per voxel and point
        expected = loop_extract_points(out, grid, CM)
        for labels, want in zip(got, expected):
            assert labels.dtype == np.int64
            np.testing.assert_array_equal(labels, want)

    def test_every_point_labeled_exactly_once(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 8, size=(80, 3))
        cloud, grid = window_from_points(pts, [0, 1])
        heat = rng.normal(size=(4, grid.num_voxels))
        cls = rng.normal(size=(4, 4))
        sem, inst = extract_panoptic(output_for(grid, heat, cls), grid, CM)
        assert sem.shape == inst.shape == (80,)
        assert np.all(np.isin(sem, CM.all_ids))

    def test_all_no_object_fallback_warns(self):
        pts = np.array([[0.5, 0.5, 0.5], [3.5, 0.5, 0.5]])
        cloud, grid = window_from_points(pts, [0])
        heat = np.zeros((2, grid.num_voxels))
        cls = np.array([[0.0, 0.0, 0.0, 9.0], [0.0, 0.0, 0.0, 9.0]])
        with pytest.warns(UserWarning):
            sem, inst = extract_panoptic(output_for(grid, heat, cls), grid, CM)
        assert sem.shape == inst.shape == (2,)


def _grid_clouds() -> dict[str, tuple[np.ndarray, float]]:
    """Seeded clouds where a hash grid could go wrong, keyed by name."""
    rng = np.random.default_rng(11)
    eps = 0.7
    axis = np.arange(-3, 4) * eps
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    faces = rng.uniform(-2, 2, size=(240, 3))
    face_axis = rng.integers(0, 3, size=240)
    faces[np.arange(240), face_axis] = rng.integers(-3, 4, size=240) * eps
    base = rng.uniform(-1, 1, size=(40, 3))
    duplicates = base[rng.integers(0, 40, size=160)]
    # pairs whose distance rounds to exactly eps although the true distance
    # is larger: floor(p / eps) puts them two cells apart
    straddle = np.array(
        [[-1e-17, 0, 0], [eps, 0, 0], [9, -1e-17, 9], [9, eps, 9], [20, 20, -1e-17], [20, 20, eps]]
    )
    # isolated (center, point at distance eps) pairs: the neighbor test is
    # decided by the last bit of the squared distance
    centers = np.stack(np.meshgrid(*[np.arange(6) * 4 * eps] * 3, indexing="ij"), -1).reshape(-1, 3)
    centers += rng.uniform(0, eps, size=centers.shape)
    directions = rng.normal(size=centers.shape)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    shells = np.concatenate([centers, centers + eps * directions])
    far = rng.normal(scale=0.5, size=(60, 3)) + np.repeat(
        np.array([[0, 0, 0], [1e9, -1e9, 1e9], [-1e9, 1e9, 5e8]]), 20, axis=0
    )
    return {
        "empty": (np.zeros((0, 3)), eps),
        "single": (np.array([[0.3, -1.2, 4.0]]), eps),
        "lattice_spacing_eps": (lattice, eps),
        "lattice_spacing_one": (lattice / eps, 1.0),
        "cell_faces": (faces, eps),
        "duplicates": (duplicates, eps),
        "negative": (rng.uniform(-6, -2, size=(200, 3)), eps),
        "offset_1e4": (rng.uniform(0, 3, size=(200, 3)) + 1e4, eps),
        "offset_minus_1e4": (rng.normal(size=(200, 3)) - 1e4, eps),
        "lattice_offset_1e4": (lattice + 1e4, eps),
        "straddle_zero": (straddle, eps),
        "shells": (shells, eps),
        "far_apart": (far, eps),
    }


GRID_CLOUDS = _grid_clouds()


class TestDbscan:
    def test_two_close_points(self):
        labels = dbscan(np.array([[0.0, 0, 0], [0.5, 0, 0]]), eps=1.0, min_pts=1)
        assert labels.tolist() == [1, 1]

    def test_two_far_points(self):
        labels = dbscan(np.array([[0.0, 0, 0], [5.0, 0, 0]]), eps=1.0, min_pts=1)
        assert labels.tolist() == [1, 2]

    def test_noise(self):
        pts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0], [9.0, 0, 0]])
        labels = dbscan(pts, eps=0.5, min_pts=3)
        assert labels.tolist() == [1, 1, 1, -1]

    def test_matches_reference_implementation(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 51))
            pts = rng.uniform(0, 4, size=(n, 3))
            got = dbscan(pts, eps=0.7, min_pts=3)
            expected = reference_dbscan(pts, eps=0.7, min_pts=3)
            np.testing.assert_array_equal(got, expected)

    def test_min_pts_one_partition_is_order_invariant(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 5, size=(40, 3))
        base = dbscan(pts, eps=0.8, min_pts=1)
        for trial in range(5):
            perm = rng.permutation(40)
            permuted = dbscan(pts[perm], eps=0.8, min_pts=1)
            # compare as partitions: same labels on pairs
            for i in range(40):
                for j in range(i + 1, 40):
                    same_a = base[perm[i]] == base[perm[j]]
                    same_b = permuted[i] == permuted[j]
                    assert same_a == same_b

    def test_core_and_noise_sets_order_invariant(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 3, size=(35, 3))
        base = dbscan(pts, eps=0.6, min_pts=3)
        perm = rng.permutation(35)
        permuted = dbscan(pts[perm], eps=0.6, min_pts=3)
        np.testing.assert_array_equal(base[perm] == -1, permuted == -1)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            dbscan(np.zeros((2, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ParameterError):
            dbscan(np.zeros((2, 3)), eps=1.0, min_pts=0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ParameterError, match="finite"):
            dbscan(np.zeros((2, 3)), eps=eps, min_pts=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = pts[3, 0] = bad
        with pytest.raises(ParameterError, match="point 2 of 4 has non-finite coordinates"):
            dbscan(pts, eps=1.0, min_pts=1)

    @pytest.mark.parametrize("min_pts", [1, 3, 8])
    @pytest.mark.parametrize("cloud", sorted(GRID_CLOUDS))
    def test_matches_quadratic_dbscan(self, cloud, min_pts):
        pts, eps = GRID_CLOUDS[cloud]
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts), quadratic_dbscan(pts, eps, min_pts)
        )

    @settings(max_examples=300)
    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(0, 60), st.just(3)),
            elements=st.one_of(
                st.floats(-4, 4),
                st.integers(-12, 12).map(lambda k: k * 0.25),  # lattice points
            ),
        ),
        eps=st.sampled_from([0.25, 0.5, 0.7, 1.0]),
        min_pts=st.integers(1, 8),
    )
    def test_property_matches_quadratic_dbscan(self, pts, eps, min_pts):
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts), quadratic_dbscan(pts, eps, min_pts)
        )

    @pytest.mark.parametrize(
        "n, box",
        [(50_000, (40.0, 40.0, 40.0)), (10_000, (4.5, 1.8, 1.5))],
        ids=["50k_in_40m_cube", "10k_in_car_box"],
    )
    def test_peak_memory_bounded(self, n, box):
        # the car box holds about 9 * 10**6 neighbor pairs at eps = 1
        pts = np.random.default_rng(0).uniform(0, 1, size=(n, 3)) * np.array(box)
        tracemalloc.start()
        try:
            labels = dbscan(pts, eps=1.0, min_pts=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (n,)
        assert peak < 64 * 2**20


def grouped_quadratic_dbscan(points, eps, min_pts, groups):
    """quadratic_dbscan run on each group alone, its clusters renumbered over
    the whole input by their smallest core index."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    groups = np.asarray(groups)
    clusters = []  # (smallest core index, member indices)
    for g in np.unique(groups):
        idx = np.flatnonzero(groups == g)
        sub = quadratic_dbscan(points[idx], eps, min_pts)
        d2 = ((points[idx][:, None, :] - points[idx][None, :, :]) ** 2).sum(axis=2)
        core = (d2 <= eps * eps).sum(axis=1) >= min_pts
        for c in np.unique(sub[sub >= 1]):
            clusters.append((int(idx[(sub == c) & core].min()), idx[sub == c]))
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    for k, (_, members) in enumerate(sorted(clusters, key=lambda cluster: cluster[0])):
        labels[members] = k + 1
    return labels


class TestGroupedDbscan:
    @settings(max_examples=200)
    @given(
        pts=arrays(
            np.float64,
            st.tuples(st.integers(0, 50), st.just(3)),
            elements=st.one_of(
                st.floats(-3, 3),
                st.integers(-12, 12).map(lambda k: k * 0.25),  # lattice points
            ),
        ),
        ids=st.lists(
            st.sampled_from([0, 1, -1, -7, 3, 1000, 2**40, -(2**40), 2**62]),
            min_size=1,
            max_size=4,
        ),
        choice=st.randoms(use_true_random=False),
        eps=st.sampled_from([0.25, 0.5, 1.0]),
        min_pts=st.sampled_from([1, 3, 8]),
    )
    def test_property_matches_per_group_quadratic(self, pts, ids, choice, eps, min_pts):
        # groups share one region of space, so they overlap
        groups = np.array([choice.choice(ids) for _ in range(pts.shape[0])], dtype=np.int64)
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts, groups=groups),
            grouped_quadratic_dbscan(pts, eps, min_pts, groups),
        )

    @pytest.mark.parametrize("min_pts", [1, 3, 8])
    @pytest.mark.parametrize("cloud", sorted(GRID_CLOUDS))
    def test_grid_clouds_in_three_groups(self, cloud, min_pts):
        pts, eps = GRID_CLOUDS[cloud]
        groups = np.random.default_rng(3).choice([-5, 2, 2**40], size=pts.shape[0])
        np.testing.assert_array_equal(
            dbscan(pts, eps, min_pts, groups=groups),
            grouped_quadratic_dbscan(pts, eps, min_pts, groups),
        )

    def test_group_major_input_keeps_per_group_numbering(self):
        rng = np.random.default_rng(5)
        parts = [rng.uniform(0, 6, size=(n, 3)) for n in (30, 0, 45, 12)]
        alone = [dbscan(p, 1.0, 3) for p in parts]
        grouped = dbscan(
            np.concatenate(parts), 1.0, 3, groups=np.repeat([4, 5, 6, 7], [len(p) for p in parts])
        )
        offset = 0
        for p, labels in zip(parts, alone):
            got = grouped[offset : offset + len(p)]
            np.testing.assert_array_equal(got == -1, labels == -1)
            shift = got[labels >= 1] - labels[labels >= 1]
            assert np.unique(shift).size <= 1
            offset += len(p)

    def test_bad_groups_rejected(self):
        pts = np.zeros((4, 3))
        with pytest.raises(ShapeError):
            dbscan(pts, 1.0, 1, groups=np.zeros(3, dtype=np.int64))
        with pytest.raises(ShapeError):
            dbscan(pts, 1.0, 1, groups=np.zeros((4, 1), dtype=np.int64))
        with pytest.raises(ParameterError, match="integer"):
            dbscan(pts, 1.0, 1, groups=np.zeros(4))
        with pytest.raises(ParameterError, match="integer"):
            dbscan(pts, 1.0, 1, groups=np.zeros(4, dtype=bool))

    def test_capacity_counts_groups(self):
        # 40k points on a diagonal 3 eps apart: about 8e4 cells per axis fit
        # int64 keys alone, but not once every point has its own group
        n = 40_000
        pts = np.repeat(np.arange(n, dtype=np.float64)[:, None] * 3.0, 3, axis=1)
        assert dbscan(pts, 1.0, 1).max() == n
        with pytest.raises(CapacityError):
            dbscan(pts, 1.0, 1, groups=np.arange(n))

    def test_peak_memory_bounded(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 40, size=(50_000, 3))
        groups = rng.integers(0, 200, size=50_000)
        tracemalloc.start()
        try:
            labels = dbscan(pts, eps=1.0, min_pts=3, groups=groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert labels.shape == (50_000,)
        assert peak < 64 * 2**20


def prediction_from_labels(cloud, frames, sem, inst):
    """Window labels of a window_from_points window (equal scan sizes)."""
    return loop_frame_labels(sem, inst, [cloud.num_points // len(frames)] * len(frames), frames)


def sized_scans(frames, sizes):
    """Stand-in scans with these frames and point counts: all that
    frame_labels reads of a window's scans."""
    return [LidarScan(points=np.zeros((n, 3)), frame_index=f) for f, n in zip(frames, sizes)]


def even_scans(cloud, frames):
    """Stand-in scans of a window_from_points window (equal scan sizes)."""
    return sized_scans(frames, [cloud.num_points // len(frames)] * len(frames))


class TestSplitNonCompact:
    def test_compact_instance_unchanged(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(30, 3)) * 0.2
        cloud, grid = window_from_points(pts, [0])
        sem = np.ones(30, dtype=np.int64)
        inst = np.ones(30, dtype=np.int64)
        pred = prediction_from_labels(cloud, [0], sem, inst)
        split = split_non_compact(inst, cloud, eps=1.0, min_pts=1)
        out = frame_labels(sem, split, even_scans(cloud, [0]))
        assert len(set(out.instance[0].tolist())) == 1
        np.testing.assert_array_equal(out.semantic[0], pred.semantic[0])
        np.testing.assert_array_equal(inst, np.ones(30, dtype=np.int64))  # input untouched

    def test_two_blobs_split(self):
        rng = np.random.default_rng(1)
        blob1 = rng.normal(size=(20, 3)) * 0.2
        blob2 = rng.normal(size=(20, 3)) * 0.2 + np.array([10.0, 0, 0])
        pts = np.concatenate([blob1, blob2])
        cloud, grid = window_from_points(pts, [0])
        sem = np.ones(40, dtype=np.int64)
        inst = np.ones(40, dtype=np.int64)
        pred = prediction_from_labels(cloud, [0], sem, inst)
        split = split_non_compact(inst, cloud, eps=1.0, min_pts=1)
        out = frame_labels(sem, split, even_scans(cloud, [0]))
        ids = out.instance[0]
        assert len(set(ids.tolist())) == 2
        assert len(set(ids[:20].tolist())) == 1
        assert len(set(ids[20:].tolist())) == 1
        np.testing.assert_array_equal(out.semantic[0], pred.semantic[0])

    def test_all_noise_kept_as_one(self):
        pts = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        cloud, grid = window_from_points(pts, [0])
        out = split_non_compact(np.ones(3, dtype=np.int64), cloud, eps=1.0, min_pts=2)
        assert len(set(out.tolist())) == 1
        assert np.all(out > 0)

    def test_noise_joins_nearest_cluster(self):
        blob1 = np.tile(np.array([[0.0, 0, 0]]), (3, 1)) + np.random.default_rng(2).normal(size=(3, 3)) * 0.1
        blob2 = np.tile(np.array([[10.0, 0, 0]]), (3, 1)) + np.random.default_rng(3).normal(size=(3, 3)) * 0.1
        lone = np.array([[3.0, 0.0, 0.0]])  # noise, closer to blob1
        pts = np.concatenate([blob1, blob2, lone])
        cloud, grid = window_from_points(pts, [0])
        ids = split_non_compact(np.ones(7, dtype=np.int64), cloud, eps=1.0, min_pts=2)
        assert ids[6] == ids[0]
        assert ids[6] != ids[3]

    def test_object_seen_in_two_frames_stays_one_instance(self):
        rng = np.random.default_rng(5)
        # one object seen in both frames at nearly the same place
        f0 = rng.normal(size=(10, 3)) * 0.1
        f1 = rng.normal(size=(10, 3)) * 0.1 + np.array([0.3, 0, 0])
        pts = np.concatenate([f0, f1])
        cloud, grid = window_from_points(pts, [0, 1])
        inst = np.ones(20, dtype=np.int64)
        out = split_non_compact(inst, cloud, eps=1.0, min_pts=1)
        assert len(set(out.tolist())) == 1  # one cluster over the 4D window

    def test_distant_frames_split_apart(self):
        rng = np.random.default_rng(6)
        f0 = rng.normal(size=(10, 3)) * 0.1
        f1 = rng.normal(size=(10, 3)) * 0.1 + np.array([8.0, 0, 0])
        pts = np.concatenate([f0, f1])
        cloud, grid = window_from_points(pts, [0, 1])
        inst = np.ones(20, dtype=np.int64)
        out = split_non_compact(inst, cloud, eps=1.0, min_pts=1)
        assert len(set(out.tolist())) == 2

    def test_never_loses_points_or_changes_semantics(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 20, size=(50, 3))
        cloud, grid = window_from_points(pts, [0, 1])
        sem = rng.choice([1, 2, 3], size=50)
        inst = np.where(np.isin(sem, [1, 2]), rng.integers(1, 4, 50), 0)
        pred = prediction_from_labels(cloud, [0, 1], sem, inst)
        split = split_non_compact(inst, cloud, eps=1.5, min_pts=1)
        out = frame_labels(sem, split, even_scans(cloud, [0, 1]))
        for f in (0, 1):
            np.testing.assert_array_equal(out.semantic[f], pred.semantic[f])
            assert out.instance[f].shape == pred.instance[f].shape
            np.testing.assert_array_equal(out.instance[f] > 0, pred.instance[f] > 0)
        before = len({i for f in (0, 1) for i in pred.instance[f] if i > 0})
        after = len({i for f in (0, 1) for i in out.instance[f] if i > 0})
        assert after >= before

    @pytest.mark.parametrize("too_long", [False, True])
    def test_wrong_length_rejected(self, too_long):
        cloud, _ = window_from_points(np.random.default_rng(3).uniform(0, 8, size=(30, 3)), [0, 1])
        n = 31 if too_long else 15
        with pytest.raises(ContractError, match=f"{n} instance ids for a window of 30"):
            split_non_compact(np.ones(n, dtype=np.int64), cloud, eps=1.0, min_pts=1)


def _split_windows():
    """Seeded (name, cloud, frames, sem, inst) windows for the split oracle."""
    out = []
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        frames = [0, 1, 2][: 1 + seed % 3]
        blobs = rng.uniform(0, 12, size=(5, 3))
        pts = blobs[rng.integers(0, 5, size=150)] + rng.normal(scale=0.5, size=(150, 3))
        cloud, _ = window_from_points(pts, frames)
        m = cloud.num_points
        inst = np.where(rng.random(m) < 0.85, rng.integers(1, 5, size=m), 0)
        sem = np.where(inst > 0, 1, 3)
        out.append((f"seeded_{seed}", cloud, frames, sem, inst))
    # instance 2 is three isolated points: all noise at min_pts >= 2
    pts = np.concatenate(
        [np.random.default_rng(7).normal(scale=0.2, size=(6, 3)), [[20.0, 0, 0], [30, 0, 0], [40, 0, 0]]]
    )
    cloud, _ = window_from_points(pts, [0])
    out.append(("all_noise", cloud, [0], np.ones(9, np.int64), np.repeat([1, 2], [6, 3])))
    # a lone point exactly between two equal clusters: the tie goes to the lower
    pair = np.array([[0.0, 0, 0], [0.5, 0, 0], [0.25, 0.3, 0]])
    pts = np.concatenate([pair, pair + [10.0, 0, 0], [[5.25, 0.1, 0]]])
    cloud, _ = window_from_points(pts, [0])
    out.append(("equidistant_noise", cloud, [0], np.ones(7, np.int64), np.ones(7, np.int64)))
    pts = np.random.default_rng(8).uniform(0, 8, size=(60, 3))
    cloud, _ = window_from_points(pts, [3, 9])
    ids = np.random.default_rng(9).choice([0, 7, 2**20, 40], size=60)
    out.append(("sparse_ids", cloud, [3, 9], np.where(ids > 0, 2, 3), ids))
    cloud, _ = window_from_points(pts, [0, 1])
    out.append(("no_things", cloud, [0, 1], np.full(60, 3), np.zeros(60, np.int64)))
    return out


SPLIT_WINDOWS = {w[0]: w[1:] for w in _split_windows()}


def relabelled(inst):
    """Instance ids sent through an increasing map far from their values;
    the split reads ids only through their order, so its output is unchanged."""
    return np.where(inst > 0, inst * 3 + 2**33, 0)


def assert_same_window(got, want):
    """Equal frames, and equal labels and dtypes in every frame."""
    assert got.frames == want.frames
    for labels, expected in ((got.semantic, want.semantic), (got.instance, want.instance)):
        assert labels.keys() == expected.keys()
        for f in expected:
            assert labels[f].dtype == expected[f].dtype
            np.testing.assert_array_equal(labels[f], expected[f])


class TestGroupedSplit:
    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("min_pts", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(SPLIT_WINDOWS))
    def test_matches_per_instance_loop(self, name, min_pts, relabel):
        cloud, frames, sem, inst = SPLIT_WINDOWS[name]
        ids = relabelled(inst) if relabel else inst
        pred = prediction_from_labels(cloud, frames, sem, ids)
        for eps in (0.6, 1.0, 1.8):
            split = split_non_compact(ids, cloud, eps, min_pts)
            if relabel:
                np.testing.assert_array_equal(split, split_non_compact(inst, cloud, eps, min_pts))
            got = prediction_from_labels(cloud, frames, sem, split)
            want = loop_split_non_compact(pred, cloud, frames, eps, min_pts)
            assert_same_window(got, want)

    def test_equidistant_noise_goes_to_lower_cluster(self):
        cloud, frames, sem, inst = SPLIT_WINDOWS["equidistant_noise"]
        out = split_non_compact(inst, cloud, eps=1.0, min_pts=2)
        assert out.tolist() == [1, 1, 1, 2, 2, 2, 1]

    @pytest.mark.parametrize("relabel", [False, True])
    @pytest.mark.parametrize("name", sorted(SPLIT_WINDOWS))
    def test_one_dbscan_call_per_window(self, monkeypatch, name, relabel):
        cloud, frames, sem, inst = SPLIT_WINDOWS[name]
        inst = relabelled(inst) if relabel else inst
        calls = []
        real = inference.dbscan

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(inference, "dbscan", spy)
        split_non_compact(inst, cloud, eps=1.0, min_pts=2)
        assert calls == [int((inst > 0).sum())]


class TestWindowLayout:
    """Per-frame labels that frame_labels cuts from extract_panoptic and
    split_non_compact against the point-by-point conversion from superimposed
    order, which takes each point's (slot, index) from the scan sizes."""

    CM = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))

    def windows(self):
        """(cloud, grid, output, frames, scan sizes): the criterion-7 windows,
        then windows whose scans differ in size, one with an empty scan."""
        from test_acceptance import _random_window_and_output

        for seed in range(10):
            yield (*_random_window_and_output(seed), [0, 1], [40, 40])
        for seed, sizes in enumerate(([25, 0, 12], [3, 31], [17, 5, 9, 2])):
            rng = np.random.default_rng(200 + seed)
            frames = sorted(rng.choice(20, size=len(sizes), replace=False).tolist())
            scans = [
                LidarScan(points=rng.uniform(0, 8, size=(n, 3)), frame_index=f)
                for f, n in zip(frames, sizes)
            ]
            cloud = superimpose(scans, [Pose.identity()] * len(scans))
            grid = voxelize(cloud, 1.0)
            heat = rng.normal(size=(6, grid.num_voxels)) * 2
            out = output_for(grid, heat, rng.normal(size=(6, 5)))
            yield cloud, grid, out, frames, sizes

    def test_matches_point_loop(self):
        for cloud, grid, out, frames, sizes in self.windows():
            sem, inst = extract_panoptic(out, grid, self.CM)
            flat = loop_extract_points(out, grid, self.CM)
            pred = loop_frame_labels(*flat, sizes, frames)
            scans = sized_scans(frames, sizes)
            assert_same_window(frame_labels(sem, inst, scans), pred)
            split = split_non_compact(inst, cloud, 1.5, 2)
            got = frame_labels(sem, split, scans)
            want = loop_split_non_compact(pred, cloud, frames, 1.5, 2)
            assert_same_window(got, want)

    @pytest.mark.parametrize("semantic, instance", [(29, 30), (30, 31), (0, 0)])
    def test_labels_not_one_per_point_rejected(self, semantic, instance):
        scans = sized_scans([4, 7], [15, 15])
        with pytest.raises(
            ContractError,
            match=rf"frames \[4, 7\]: {semantic} semantic and {instance} instance labels for 30 points",
        ):
            frame_labels(np.ones(semantic, np.int64), np.ones(instance, np.int64), scans)


class TestStitch:
    def prev_with(self, frame, inst):
        return SequenceLabels(
            frames=[frame],
            semantic={frame: np.ones(len(inst), dtype=np.int64)},
            instance={frame: np.asarray(inst, dtype=np.int64)},
        )

    def next_with(self, frame, inst):
        """A window of the one frame: its flat instance ids."""
        return np.asarray(inst, dtype=np.int64)

    def test_unique_overlap_inherits_id(self):
        prev = self.prev_with(5, [0, 7, 7, 7, 0])
        nxt = self.next_with(5, [0, 0, 2, 2, 2])
        mapping, free = stitch(prev, nxt, [5], next_free_id=100)
        assert mapping[2] == 7
        assert free == 100

    def test_zero_overlap_gets_fresh_id(self):
        prev = self.prev_with(3, [7, 7, 0, 0])
        nxt = self.next_with(3, [0, 0, 0, 4])
        mapping, free = stitch(prev, nxt, [3], next_free_id=50)
        assert mapping[4] == 50
        assert free == 51

    def test_matches_brute_force_max_overlap(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 40
            prev_ids = rng.integers(0, 5, size=n)  # 4 prev instances + stuff
            next_ids = rng.integers(0, 5, size=n)
            prev = self.prev_with(0, prev_ids)
            nxt = self.next_with(0, next_ids)
            mapping, _ = stitch(prev, nxt, [0], next_free_id=1000)

            prevs = sorted(set(prev_ids) - {0})
            locals_ = sorted(set(next_ids) - {0})
            counts = np.zeros((len(prevs), len(locals_)))
            for p, l in zip(prev_ids, next_ids):
                if p > 0 and l > 0:
                    counts[prevs.index(p), locals_.index(l)] += 1
            got_weight = sum(
                counts[prevs.index(g), locals_.index(l)]
                for l, g in mapping.items()
                if g in prevs
            )
            assert got_weight == pytest.approx(brute_force_max_assignment(counts))

    def test_sparse_ids_over_two_shared_frames(self):
        rng = np.random.default_rng(9)
        prev = SequenceLabels()
        for f in (4, 5):
            prev.frames.append(f)
            prev.semantic[f] = np.ones(50, dtype=np.int64)
            prev.instance[f] = rng.choice([0, 3, 17, 400, 65000], size=50)
        nxt = rng.choice([0, 2, 9, 31], size=100)
        mapping, free = stitch(prev, nxt, [4, 5], next_free_id=70000)

        overlap = collections.Counter(
            (int(p), int(l))
            for p, l in zip(np.concatenate([prev.instance[4], prev.instance[5]]), nxt)
            if p > 0 and l > 0
        )
        prevs = sorted({p for p, _ in overlap})
        locals_ = [2, 9, 31]
        counts = np.array([[overlap[(p, l)] for l in locals_] for p in prevs], dtype=float)
        assert sorted(mapping) == locals_
        got_weight = sum(overlap[(g, l)] for l, g in mapping.items())
        assert got_weight == brute_force_max_assignment(counts.T)  # more tracks than locals
        assert sorted(g for g in mapping.values() if g >= 70000) == list(range(70000, free))

    def test_idempotent(self):
        prev = self.prev_with(2, [1, 1, 2, 2, 0])
        nxt = self.next_with(2, [3, 3, 9, 9, 0])
        m1, f1 = stitch(prev, nxt, [2], next_free_id=10)
        m2, f2 = stitch(prev, nxt, [2], next_free_id=10)
        assert m1 == m2 and f1 == f2

    def test_wrapper_on_solve_assignment_sees_stitch_matrices(self, monkeypatch):
        seen, solve = [], inference.heads.solve_assignment

        def spy(cost):
            seen.append(cost.shape)
            return solve(cost)

        monkeypatch.setattr(inference.heads, "solve_assignment", spy)
        prev = self.prev_with(5, [0, 7, 7, 3, 0])
        nxt = self.next_with(5, [0, 0, 2, 4, 4])
        mapping, _ = stitch(prev, nxt, [5], next_free_id=100)
        assert seen == [(2, 2)] and mapping == {2: 7, 4: 3}

    def test_no_shared_frames_gives_fresh_ascending_ids(self, monkeypatch):
        def no_solve(cost):
            raise AssertionError("no assignment without shared frames")

        monkeypatch.setattr(inference.heads, "solve_assignment", no_solve)
        prev = self.prev_with(0, [12, 4])
        nxt = np.array([0, 12, 4, 9, 4])  # frames 0 and 1
        mapping, free = stitch(prev, nxt, [], next_free_id=5)
        assert list(mapping.items()) == [(4, 5), (9, 6), (12, 7)]
        assert free == 8

    @pytest.mark.parametrize(
        "prev_frames, next_size, problem",
        [
            ({3: 2, 4: 2}, 2, r"frames \[3, 4\]: 4 points past nxt's 2"),
            ({3: 2}, 4, "shared frame 4 is not labelled by the previous windows"),
            ({3: 2, 4: 3}, 4, r"frames \[3, 4\]: 5 points past nxt's 4"),
        ],
    )
    def test_named_shared_frame_must_match_on_both_sides(self, prev_frames, next_size, problem):
        prev = SequenceLabels(
            frames=list(prev_frames),
            semantic={f: np.ones(n, dtype=np.int64) for f, n in prev_frames.items()},
            instance={f: np.ones(n, dtype=np.int64) for f, n in prev_frames.items()},
        )
        with pytest.raises(ContractError, match=problem):
            stitch(prev, np.ones(next_size, dtype=np.int64), [3, 4], next_free_id=5)


def gt_stub_predictor(renumber=True):
    """Window predictor that returns ground-truth labels with window-local ids."""

    def predict(scans, poses, frames):
        sem = np.concatenate([scan.semantic for scan in scans])
        raw_ids = np.concatenate([scan.instance for scan in scans])
        inst = np.zeros_like(raw_ids)
        mapping = {}
        for i, raw in enumerate(raw_ids):
            if raw > 0:
                if raw not in mapping:
                    mapping[raw] = len(mapping) + 1 if renumber else int(raw)
                inst[i] = mapping[raw]
        return sem, inst

    return predict


class TestRunSequence:
    def make_sequence(self, hidden=()):
        from panoptic4d.synth import SceneSpec, generate_sequence

        return generate_sequence(
            SceneSpec(seed=5, num_frames=5, num_thing_objects=2, hidden=hidden)
        )

    def test_single_window_no_stitch(self):
        seq = self.make_sequence()
        pred = run_sequence(gt_stub_predictor(), seq, window=5, stride=1)
        assert pred.frames == [0, 1, 2, 3, 4]

    def test_bookkeeping_counts(self):
        seq = self.make_sequence()
        calls = []
        inner = gt_stub_predictor()

        def counting(scans, poses, frames):
            calls.append(list(frames))
            return inner(scans, poses, frames)

        run_sequence(counting, seq, window=2, stride=1)
        assert calls == [[0, 1], [1, 2], [2, 3], [3, 4]]

    def test_consistent_tracks_with_perfect_windows(self):
        seq = self.make_sequence()
        pred = run_sequence(gt_stub_predictor(), seq, window=2, stride=1)
        # each gt instance maps to exactly one predicted id over the sequence
        for track in seq.tracks:
            ids = set()
            for scan in seq.scans:
                sel = scan.instance == track.instance_id
                if sel.any():
                    ids.update(pred.instance[scan.frame_index][sel].tolist())
            assert len(ids) == 1

    def test_hidden_shared_frame_splits_track(self):
        seq = self.make_sequence(hidden=((1, 2),))  # instance 1 missing in frame 2
        pred = run_sequence(gt_stub_predictor(), seq, window=2, stride=1)
        ids = set()
        for scan in seq.scans:
            sel = scan.instance == 1
            if sel.any():
                ids.update(pred.instance[scan.frame_index][sel].tolist())
        assert len(ids) == 2  # track id changes across the occlusion gap

    def test_every_point_covered(self):
        seq = self.make_sequence()
        pred = run_sequence(gt_stub_predictor(), seq, window=3, stride=2)
        for scan in seq.scans:
            assert pred.semantic[scan.frame_index].shape == (scan.num_points,)

    def test_two_shared_frames_track_consistency(self):
        seq = self.make_sequence()
        pred = run_sequence(gt_stub_predictor(), seq, window=3, stride=1)
        for track in seq.tracks:
            ids = set()
            for scan in seq.scans:
                sel = scan.instance == track.instance_id
                if sel.any():
                    ids.update(pred.instance[scan.frame_index][sel].tolist())
            assert len(ids) == 1

    @pytest.mark.parametrize("num_frames", [2, 3])
    def test_window_longer_than_sequence_is_one_window(self, num_frames):
        # window 4, stride 3 is a valid config; on a short sequence only one
        # window forms, so there is nothing to overlap
        from panoptic4d.synth import SceneSpec, generate_sequence

        seq = generate_sequence(SceneSpec(seed=5, num_frames=num_frames, num_thing_objects=2))
        calls = []
        inner = gt_stub_predictor()

        def counting(scans, poses, frames):
            calls.append(list(frames))
            return inner(scans, poses, frames)

        pred = run_sequence(counting, seq, window=4, stride=3)
        assert calls == [list(range(num_frames))]
        assert pred.frames == list(range(num_frames))
        for scan in seq.scans:
            np.testing.assert_array_equal(pred.semantic[scan.frame_index], scan.semantic)

    def test_track_ids_past_16_bits_fail_at_their_window(self):
        """30000 fresh ids per one-scan window: window 2 needs id 90000, so
        the third predictor call is the last, long before labels are written."""
        n = 30000
        scans = [LidarScan(points=np.zeros((n, 3)), frame_index=f) for f in range(5)]
        seq = ScanSequence(scans, [Pose.identity()] * 5, ClassMap(thing_ids=(1,), stuff_ids=(2,)))
        calls = []

        def fresh_ids(scans, poses, frames):
            calls.append(list(frames))
            return np.ones(n, dtype=np.int64), np.arange(1, n + 1, dtype=np.int64)

        with pytest.raises(CapacityError, match=r"window 2 frames \[2\]: .* 16-bit .* 65535"):
            run_sequence(fresh_ids, seq, window=1, stride=1)
        assert calls == [[0], [1], [2]]

    def test_bad_stride(self):
        seq = self.make_sequence()
        with pytest.raises(ParameterError):
            run_sequence(gt_stub_predictor(), seq, window=2, stride=2)

    def test_zero_stride_is_a_parameter_error(self):
        seq = self.make_sequence()
        for window in (1, 2):
            with pytest.raises(ParameterError, match="stride must be >= 1"):
                run_sequence(gt_stub_predictor(), seq, window=window, stride=0)


@st.composite
def tracked_sequences(draw):
    """A labelled sequence of 1-9 frames, empty scans and frames without
    instances included, with a window and a stride of 1-4 each."""
    scans = []
    for f in range(draw(st.integers(1, 9))):
        size = draw(st.integers(0, 8))
        inst = draw(arrays(np.int64, size, elements=st.sampled_from([0, 1, 2, 5, 40])))
        if draw(st.booleans()):
            inst[:] = 0
        sem = np.where(inst > 0, 1, 3)
        scans.append(LidarScan(np.zeros((size, 3)), f, semantic=sem, instance=inst))
    poses = [Pose(np.eye(3), np.zeros(3)) for _ in scans]
    window, stride = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return ScanSequence(scans, poses, CM), window, stride


def noisy_predictor(numbering, dtype, seed):
    """Window predictor from ground truth that drops about a fifth of the
    instance points per window and gives locals the raw ids, dense ids in
    order of appearance, or ids shuffled and offset per window."""

    def predict(scans, poses, frames):
        rng = np.random.default_rng((seed, frames[0], len(frames)))
        raw = [np.where(rng.random(s.num_points) < 0.8, s.instance, 0) for s in scans]
        ids, first = np.unique(np.concatenate(raw), return_index=True)
        ids, first = ids[ids > 0], first[ids > 0]
        if numbering == "raw":
            local = ids
        elif numbering == "dense":
            local = np.empty_like(ids)
            local[np.argsort(first)] = np.arange(1, ids.size + 1)
        else:
            local = rng.permutation(ids.size) + int(rng.integers(1, 100))
        lookup = np.zeros(41, dtype=np.int64)
        lookup[ids] = local
        semantic = np.concatenate([s.semantic for s in scans])
        return semantic, lookup[np.concatenate(raw)].astype(dtype)

    return predict


@settings(max_examples=300)
@given(
    tracked_sequences(),
    st.sampled_from(["raw", "dense", "shuffled"]),
    st.sampled_from([np.int64, np.int32]),
    st.integers(0, 2**16),
)
def test_run_sequence_matches_per_frame_and_two_path_oracles(case, numbering, dtype, seed):
    seq, window, stride = case
    predictor = noisy_predictor(numbering, dtype, seed)
    for oracle in (per_frame_run_sequence, two_path_run_sequence):
        try:
            want = oracle(per_frame_predictor(predictor), seq, window, stride)
        except ParameterError as exc:
            with pytest.raises(ParameterError, match=str(exc)):
                run_sequence(predictor, seq, window, stride)
            continue
        got = run_sequence(predictor, seq, window, stride)
        assert got.frames == want.frames
        for f in want.frames:
            for name in ("semantic", "instance"):
                a, b = getattr(got, name)[f], getattr(want, name)[f]
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (oracle, name, f)
