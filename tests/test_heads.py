import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panoptic4d.autodiff as ad
from panoptic4d.autodiff import Tensor, backward
from panoptic4d.errors import CapacityError, ContractError, ShapeError
from panoptic4d.geometry import superimpose, voxelize, LidarScan, Pose, WindowContext
from panoptic4d.heads import (
    MaskModuleOutput,
    MatchResult,
    Targets,
    box_l1_loss,
    build_targets,
    ce_loss,
    hungarian_match,
    label_pairs,
    matching_cost_matrix,
    solve_assignment,
    total_loss,
)
from panoptic4d.config import desk_preset
from panoptic4d.model import point_labels, prepare_window
from panoptic4d.sequence import ClassMap, sequence_windows
from panoptic4d.synth import generate_sequence
from panoptic4d.training import augmentation

from oracles import (
    brute_force_assignment,
    loop_build_targets,
    loop_total_loss,
    scalar_assignment,
    target_table,
)
from test_acceptance import OVERFIT_SPEC


def output_from_arrays(heat, class_logits, boxes=None):
    nq = heat.shape[0]
    boxes = boxes if boxes is not None else np.full((nq, 6), 0.5)
    return MaskModuleOutput(
        heatmap_logits=Tensor(np.asarray(heat, dtype=np.float64)),
        class_logits=Tensor(np.asarray(class_logits, dtype=np.float64)),
        boxes=Tensor(np.asarray(boxes, dtype=np.float64)),
    )


def segment(mask, class_index=0, box=None, instance_id=0):
    """One target row; a thing (instance_id > 0) carries its box."""
    return np.asarray(mask, dtype=bool), class_index, instance_id, box


def table(*segments, num_voxels=None):
    """The target table of segment() rows."""
    return target_table(segments, len(segments[0][0]) if num_voxels is None else num_voxels)


def test_class_probs_is_the_tape_softmax():
    rng = np.random.default_rng(2)
    out = output_from_arrays(rng.normal(size=(5, 9)), 30.0 * rng.normal(size=(5, 4)))
    want = ad.softmax(out.class_logits, axis=-1).values
    assert out.class_probs().tobytes() == want.tobytes()


class TestLosses:
    @staticmethod
    def one_pair(heat):
        """total_loss of one query with heatmap logits heat against one stuff
        target on mask [1, 0]."""
        out = output_from_arrays(np.array([heat], dtype=np.float64), np.zeros((1, 2)))
        targets = table(segment([1, 0]))
        return total_loss([out], targets, MatchResult([(0, 0)], 1), desk_preset())

    def test_dice_perfect(self):
        _, parts = self.one_pair([800.0, -800.0])
        assert parts.dice == pytest.approx(0.0, abs=1e-6)

    def test_dice_disjoint(self):
        _, parts = self.one_pair([-800.0, 800.0])
        assert parts.dice == pytest.approx(desk_preset().lambda_dice, abs=1e-6)

    def test_dice_half(self):
        _, parts = self.one_pair([0.0, 0.0])
        assert parts.dice == pytest.approx(0.5 * desk_preset().lambda_dice, abs=1e-6)

    def test_bce_at_half(self):
        _, parts = self.one_pair([0.0, 0.0])
        assert parts.bce == pytest.approx(np.log(2) * desk_preset().lambda_bce, abs=1e-5)

    def test_ce_uniform(self):
        v = ce_loss(Tensor(np.zeros((2, 3))), np.array([0, 2]))
        np.testing.assert_allclose(v.values, np.log(3), atol=1e-5)

    def test_box_l1(self):
        target = np.array([[0.1, 0.2, 0.3, 0.2, 0.4, 0.6]])
        pred = Tensor(np.full((1, 6), 0.5))
        v = box_l1_loss(pred, target)
        assert v.values[0] == pytest.approx((0.4 + 0.3 + 0.2 + 0.3 + 0.1 + 0.1) / 6)
        assert box_l1_loss(Tensor(target.copy()), target).values[0] == pytest.approx(0.0)

    def test_losses_nonnegative_and_no_nan(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            _, parts = self.one_pair(rng.normal(scale=5.0, size=2))
            assert parts.dice >= -1e-9
            assert np.isfinite(parts.bce) and parts.bce >= 0
        # saturated logits stay finite
        for heat in ([800.0, -800.0], [-800.0, 800.0]):
            loss, _ = self.one_pair(heat)
            assert np.isfinite(loss.item())

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ce_loss(Tensor(np.zeros((2, 3))), np.zeros(3, dtype=int))


class TestSolveAssignment:
    def test_diagonal_optimum(self):
        pairs = solve_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert pairs == [(0, 0), (1, 1)]

    def test_cross_optimum(self):
        cost = np.array([[4.0, 1.0], [2.0, 3.0]])
        pairs = solve_assignment(cost)
        assert pairs == [(0, 1), (1, 0)]
        total = sum(cost[r, c] for r, c in pairs)
        assert total == pytest.approx(brute_force_assignment(cost)[0])

    def test_random_square_matches_brute_force(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            cost = rng.integers(0, 50, size=(n, n)).astype(float)
            pairs = solve_assignment(cost)
            total = sum(cost[r, c] for r, c in sorted(pairs))
            expected, _ = brute_force_assignment(cost)
            assert total == expected

    def test_rectangular_matches_brute_force(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(1, 5))
            m = int(rng.integers(n, 8))
            cost = rng.normal(size=(n, m))
            pairs = solve_assignment(cost)
            assert len(pairs) == n
            assert len({c for _, c in pairs}) == n
            total = sum(cost[r, c] for r, c in sorted(pairs))
            expected, _ = brute_force_assignment(cost)
            assert total == pytest.approx(expected, abs=1e-12)

    def test_infinite_cost_rejected(self):
        with pytest.raises(ContractError):
            solve_assignment(np.array([[np.inf, 1.0], [1.0, 2.0]]))

    def test_matches_scalar_reference_with_ties(self):
        for seed in range(60):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(1, 16))
            m = int(rng.integers(n, 40))
            cost = rng.integers(0, 4, size=(n, m)).astype(float)
            assert solve_assignment(cost) == scalar_assignment(cost)


class TestHungarianMatch:
    def test_capacity(self):
        out = output_from_arrays(np.zeros((1, 4)), np.zeros((1, 3)))
        targets = table(segment([1, 0, 0, 0]), segment([0, 1, 0, 0]))
        with pytest.raises(CapacityError):
            hungarian_match(out, targets, desk_preset())

    def test_matches_obvious_masks(self):
        heat = np.array([[9.0, 9.0, -9.0, -9.0], [-9.0, -9.0, 9.0, 9.0]])
        cls = np.array([[5.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        out = output_from_arrays(heat, cls)
        targets = table(
            segment([0, 0, 1, 1], class_index=1, box=[0.5] * 6, instance_id=1),
            segment([1, 1, 0, 0], class_index=0),
        )
        match = hungarian_match(out, targets, desk_preset())
        assert sorted(match.pairs) == [(0, 1), (1, 0)]
        assert match.unmatched_queries().size == 0

    def test_bce_cost_is_averaged_over_voxels(self):
        heat = np.array([[0.3, -0.7, 1.2, 0.1]])
        out = output_from_arrays(heat, np.zeros((1, 3)))
        t = table(segment([1, 0, 1, 0]))
        cfg = desk_preset()
        p = 1 / (1 + np.exp(-heat[0]))
        g = np.array([1.0, 0, 1.0, 0])
        dice = 1 - 2 * (p * g).sum() / (p.sum() + g.sum() + 1e-7)
        bce = -(g * np.log(p + 1e-7) + (1 - g) * np.log(1 - p + 1e-7))
        ce = -np.log(1 / 3 + 1e-7)  # uniform class probabilities
        want = cfg.lambda_dice * dice + cfg.lambda_bce * bce.mean() + cfg.lambda_ce * ce
        assert matching_cost_matrix(out, t, cfg)[0, 0] == pytest.approx(want, abs=1e-12)

    def test_box_cost_excluded(self):
        heat = np.array([[2.0, -2.0], [-2.0, 2.0]])
        cls = np.zeros((2, 3))
        t = table(segment([1, 0]), segment([0, 1]))
        a = output_from_arrays(heat, cls, boxes=np.zeros((2, 6)))
        b = output_from_arrays(heat, cls, boxes=np.ones((2, 6)))
        np.testing.assert_array_equal(
            matching_cost_matrix(a, t, desk_preset()),
            matching_cost_matrix(b, t, desk_preset()),
        )


def context(cloud):
    """The normalization frame of a one-frame window holding cloud."""
    return WindowContext(*cloud.extent(), 0, 0)


class TestBuildTargets:
    def make_window(self):
        rng = np.random.default_rng(0)
        obj1 = rng.normal(size=(30, 3)) * 0.3 + np.array([5.0, 0, 0])
        obj2 = rng.normal(size=(30, 3)) * 0.3 + np.array([-5.0, 0, 0])
        ground = np.column_stack(
            [rng.uniform(-8, 8, 60), rng.uniform(-8, 8, 60), rng.normal(0, 0.05, 60)]
        )
        pts = np.concatenate([obj1, obj2, ground])
        sem = np.array([1] * 30 + [1] * 30 + [3] * 60)
        inst = np.array([1] * 30 + [2] * 30 + [0] * 60)
        scan = LidarScan(points=pts, frame_index=0, semantic=sem, instance=inst)
        cloud = superimpose([scan], [Pose.identity()])
        grid = voxelize(cloud, 0.5)
        return cloud, grid, sem, inst

    def test_segments_cover_all_voxels_disjointly(self):
        cloud, grid, sem, inst = self.make_window()
        targets = build_targets(cloud, grid, sem, inst, ClassMap((1, 2), (3, 4)), context(cloud))
        assert np.all(targets.masks.sum(axis=0) == 1)

    def test_things_have_boxes_stuff_does_not(self):
        cloud, grid, sem, inst = self.make_window()
        targets = build_targets(cloud, grid, sem, inst, ClassMap((1, 2), (3, 4)), context(cloud))
        things = targets.is_thing
        assert things.sum() == 2 and (~things).sum() == 1
        v = targets.boxes[things]
        assert np.all(v[:, 3:] > 0)  # 30 spread points give a box of positive size
        assert np.all(v >= 0) and np.all(v <= 1)
        assert np.all(targets.boxes[~things] == 0)

    def test_ignore_label_excluded(self):
        cloud, grid, sem, inst = self.make_window()
        sem2 = sem.copy()
        sem2[:10] = 255
        targets = build_targets(cloud, grid, sem2, inst, ClassMap((1, 2), (3, 4)), context(cloud))
        # voxels whose points are all ignored appear in no mask
        assert np.all(targets.masks.sum(axis=0) <= 1)


def assert_same_targets(got: Targets, want: Targets):
    assert len(got) == len(want)
    for name in ("masks", "class_index", "instance_id", "boxes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


def criterion_4_windows():
    cfg = desk_preset()
    seq = generate_sequence(OVERFIT_SPEC)
    for scans, poses in sequence_windows(seq, cfg.window, cfg.stride):
        data = prepare_window(scans, poses, cfg.voxel_size)
        yield (data, *point_labels(data.scans))


def labelled_cloud(seed, n, voxel_size, sem_choices, inst_choices):
    """Points packed into few voxels with labels drawn from small sets, so
    voxels hold ties, ignore-only members and repeated pairs."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 3.0, size=(n, 3))
    sem = rng.choice(sem_choices, size=n)
    inst = rng.choice(inst_choices, size=n)
    cloud = superimpose([LidarScan(points=pts, frame_index=0)], [Pose.identity()])
    return cloud, voxelize(cloud, voxel_size), sem, inst


class TestBuildTargetsMatchesLoop:
    CM = ClassMap((1, 2), (3, 4))

    def assert_table_invariants(self, targets: Targets, num_voxels: int):
        """Disjoint mask rows, zero boxes for stuff, and is_thing (instance
        id > 0) equal to the flag of a thing class with a positive instance."""
        assert targets.masks.shape == (len(targets), num_voxels)
        assert np.all(targets.masks.sum(axis=0) <= 1)
        assert np.all(targets.boxes[~targets.is_thing] == 0)
        ids = np.array(self.CM.all_ids)[targets.class_index]
        flag = [c in self.CM.thing_ids and i > 0 for c, i in zip(ids, targets.instance_id)]
        assert targets.is_thing.tolist() == flag

    def test_criterion_4_windows(self):
        count = 0
        for data, sem, inst in criterion_4_windows():
            got = build_targets(data.cloud, data.grid, sem, inst, self.CM, data.ctx)
            want = loop_build_targets(data.cloud, data.grid, sem, inst, self.CM, data.ctx)
            assert_same_targets(got, want)
            self.assert_table_invariants(got, data.grid.num_voxels)
            assert got.is_thing.any() and got.masks.any(axis=1).all()
            assert len(got) == len(label_pairs(sem, inst, self.CM)[2])
            count += 1
        assert count >= 2

    @pytest.mark.parametrize("seed", range(12))
    def test_tie_heavy_and_ignore_only_voxels(self, seed):
        # two points per voxel on average: many exact ties between pairs
        sems = [[1, 3, 255], [1, 2, 3, 4, 255, 9], [255, 255, 2], [3, 4]][seed % 4]
        insts = [[0, 1, 2], [0, 5, -3, 1 << 40], [7]][seed % 3]
        cloud, grid, sem, inst = labelled_cloud(seed, 60 + 40 * seed, 3.0 / (2 + seed % 5), sems, insts)
        got = build_targets(cloud, grid, sem, inst, self.CM, context(cloud))
        assert_same_targets(got, loop_build_targets(cloud, grid, sem, inst, self.CM, context(cloud)))
        self.assert_table_invariants(got, grid.num_voxels)

    def test_every_point_ignored(self):
        cloud, grid, sem, inst = labelled_cloud(0, 50, 0.5, [255, 9], [0, 1])
        targets = build_targets(cloud, grid, sem, inst, self.CM, context(cloud))
        assert len(targets) == 0
        assert len(loop_build_targets(cloud, grid, sem, inst, self.CM, context(cloud))) == 0
        assert targets.masks.shape == (0, grid.num_voxels)
        assert targets.class_index.shape == targets.instance_id.shape == (0,)
        assert targets.boxes.shape == (0, 6)
        # every query is free: the loss is the no-object term alone
        rng = np.random.default_rng(0)
        out = output_from_arrays(rng.normal(size=(3, grid.num_voxels)), rng.normal(size=(3, 5)))
        cfg = desk_preset()
        match = hungarian_match(out, targets, cfg)
        assert match.pairs == [] and match.unmatched_queries().tolist() == [0, 1, 2]
        loss, parts = total_loss([out], targets, match, cfg)
        no_object = ce_loss(out.class_logits, np.full(3, 4)).values.sum()
        want = no_object * cfg.no_object_weight * cfg.lambda_ce
        assert parts.no_object == pytest.approx(want, rel=1e-12)
        assert (parts.dice, parts.bce, parts.ce, parts.box) == (0.0, 0.0, 0.0, 0.0)
        assert loss.item() == parts.total == pytest.approx(want, rel=1e-12)

    def test_tie_goes_to_the_first_member_point(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [0.3, 0.3, 0.3], [0.4, 0.4, 0.4]])
        sem = np.array([255, 3, 1, 1])
        inst = np.array([0, 0, 4, 5])
        cloud = superimpose([LidarScan(points=pts, frame_index=0)], [Pose.identity()])
        grid = voxelize(cloud, 1.0)
        targets = build_targets(cloud, grid, sem, inst, self.CM, context(cloud))
        assert list(zip(targets.class_index.tolist(), targets.instance_id.tolist())) == [(2, 0)]


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 150),
    st.sampled_from([0.05, 0.3, 0.8, 2.0, 10.0]),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)
@settings(max_examples=200)
def test_label_pairs_bound_the_targets_under_augmentation(seed, num_scans, n, voxel_size, flags):
    """The distinct labelled (class index, instance) pairs, instance 0 for
    stuff, are those of a set built point by point, and every target of an
    augmented window is one of them. The labels hold ids outside the map
    (255, 9, -1) and thing points of instance 0."""
    cm = TestBuildTargetsMatchesLoop.CM
    rng = np.random.default_rng(seed)
    scans = []
    for f in range(num_scans):
        sem = rng.choice([1, 2, 3, 4, 255, 9, -1], size=n)
        inst = rng.choice([0, 1, 2, 7, -3], size=n)
        scans.append(LidarScan(rng.uniform(-2.0, 2.0, size=(n, 3)), f, sem, inst))
    cfg = desk_preset(aug_rotate=flags[0], aug_translate=flags[1], aug_scale=flags[2])
    data = prepare_window(scans, [Pose.identity()] * num_scans, voxel_size, augmentation(cfg, rng))
    sem, inst = point_labels(data.scans)
    _, unpack, keys, _ = label_pairs(sem, inst, cm)
    cls = cm.index(sem)
    pairs = {(c, i if cm.thing[c] else 0) for c, i in zip(cls.tolist(), inst.tolist()) if c >= 0}
    assert sorted(pairs) == list(zip(*(half.tolist() for half in unpack(keys))))
    targets = build_targets(data.cloud, data.grid, sem, inst, cm, data.ctx)
    assert set(zip(targets.class_index.tolist(), targets.instance_id.tolist())) <= pairs
    assert len(targets) <= len(keys)


class TestTotalLoss:
    def perfect_case(self):
        heat = np.array([[30.0, 30.0, -30.0], [-30.0, -30.0, 30.0]])
        cls = np.array([[30.0, 0.0, 0.0], [0.0, 30.0, 0.0]])
        boxes = np.array([[0.2, 0.2, 0.2, 0.1, 0.1, 0.1], [0.5] * 6])
        out = output_from_arrays(heat, cls, boxes)
        targets = table(
            segment([1, 1, 0], class_index=0, box=[0.2, 0.2, 0.2, 0.1, 0.1, 0.1], instance_id=1),
            segment([0, 0, 1], class_index=1),
        )
        return out, targets

    def test_perfect_prediction_near_zero(self):
        out, targets = self.perfect_case()
        cfg = desk_preset()
        match = hungarian_match(out, targets, cfg)
        loss, breakdown = total_loss([out], targets, match, cfg)
        assert loss.item() == pytest.approx(0.0, abs=1e-5)

    def test_box_ablation_switch(self):
        out, targets = self.perfect_case()
        out.boxes = Tensor(np.zeros((2, 6)))  # wrong boxes now
        w_on = desk_preset(lambda_box=1.0)
        w_off = desk_preset(lambda_box=0.0)
        match = hungarian_match(out, targets, w_on)
        loss_on, bd_on = total_loss([out], targets, match, w_on)
        loss_off, bd_off = total_loss([out], targets, match, w_off)
        assert bd_off.box == 0.0
        assert bd_on.box > 0
        assert loss_on.item() == pytest.approx(loss_off.item() + bd_on.box)
        # the switch turns the term off whatever lambda_box holds
        switched = desk_preset(lambda_box=3.0, use_box_loss=False)
        loss_sw, bd_sw = total_loss([out], targets, match, switched)
        assert bd_sw.as_row() == bd_off.as_row() and loss_sw.item() == loss_off.item()

    def test_deep_supervision_sums(self):
        out, targets = self.perfect_case()
        rng = np.random.default_rng(0)
        noisy = output_from_arrays(
            rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), np.full((2, 6), 0.5)
        )
        cfg = desk_preset()
        match = hungarian_match(out, targets, cfg)
        l1, _ = total_loss([out], targets, match, cfg)
        l2, _ = total_loss([noisy], targets, match, cfg)
        l12, _ = total_loss([out, noisy], targets, match, cfg)
        assert l12.item() == pytest.approx(l1.item() + l2.item(), rel=1e-12)

    def test_permutation_invariance(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            nq, k0, c = 5, 12, 3
            heat = rng.normal(size=(nq, k0))
            cls = rng.normal(size=(nq, c + 1))
            boxes = rng.random((nq, 6))
            out = output_from_arrays(heat, cls, boxes)
            masks = np.zeros((3, k0))
            for t, sl in enumerate([slice(0, 4), slice(4, 8), slice(8, 12)]):
                masks[t, sl] = 1
            targets = table(
                segment(masks[0], class_index=0, box=[0.3] * 6, instance_id=1),
                segment(masks[1], class_index=1, box=[0.6] * 6, instance_id=2),
                segment(masks[2], class_index=2),
            )
            cfg = desk_preset()
            match = hungarian_match(out, targets, cfg)
            loss, _ = total_loss([out], targets, match, cfg)

            perm = rng.permutation(nq)
            out_p = output_from_arrays(heat[perm], cls[perm], boxes[perm])
            match_p = hungarian_match(out_p, targets, cfg)
            loss_p, _ = total_loss([out_p], targets, match_p, cfg)
            assert loss_p.item() == pytest.approx(loss.item(), abs=1e-9)

    def test_target_reorder_invariance(self):
        rng = np.random.default_rng(3)
        out = output_from_arrays(rng.normal(size=(4, 9)), rng.normal(size=(4, 3)))
        masks = [np.zeros(9), np.zeros(9), np.zeros(9)]
        masks[0][:3] = 1
        masks[1][3:6] = 1
        masks[2][6:] = 1
        t1 = table(segment(masks[0], 0), segment(masks[1], 1), segment(masks[2], 0))
        t2 = table(segment(masks[2], 0), segment(masks[0], 0), segment(masks[1], 1))
        cfg = desk_preset()
        l1, _ = total_loss([out], t1, hungarian_match(out, t1, cfg), cfg)
        l2, _ = total_loss([out], t2, hungarian_match(out, t2, cfg), cfg)
        assert l1.item() == pytest.approx(l2.item(), abs=1e-9)

    def test_gradient_reaches_logits(self):
        rng = np.random.default_rng(4)
        heat = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        cls = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        boxes_raw = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        out = MaskModuleOutput(
            heatmap_logits=heat, class_logits=cls, boxes=ad.sigmoid(boxes_raw)
        )
        m = np.zeros(6)
        m[:3] = 1
        targets = table(segment(m, 0, box=[0.4] * 6, instance_id=1))
        cfg = desk_preset()
        match = hungarian_match(out, targets, cfg)
        loss, _ = total_loss([out], targets, match, cfg)
        backward(loss)
        assert np.abs(heat.grad).max() > 0
        assert np.abs(cls.grad).max() > 0
        assert np.abs(boxes_raw.grad).max() > 0  # box branch gradient is live


def random_loss_case(seed, num_outputs, nq, k0, num_classes, segments):
    """`num_outputs` random outputs whose logits and boxes are grad leaves,
    and targets from (class_index, is_thing) pairs with disjoint masks."""
    rng = np.random.default_rng(seed)
    leaves = [
        [
            Tensor(rng.normal(size=(nq, k0)) * 2.0, requires_grad=True),
            Tensor(rng.normal(size=(nq, num_classes + 1)), requires_grad=True),
            Tensor(rng.random((nq, 6)), requires_grad=True),
        ]
        for _ in range(num_outputs)
    ]
    owner = rng.integers(0, max(1, len(segments)), size=k0)
    targets = table(
        *[
            segment(
                owner == i,
                class_index=c,
                box=rng.random(6) if thing else None,
                instance_id=i + 1 if thing else 0,
            )
            for i, (c, thing) in enumerate(segments)
        ],
        num_voxels=k0,
    )
    return leaves, targets


LOSS_ORACLE_CASES = {
    "mixed": (7, 5, dict(), [(0, True), (1, True), (2, False)]),
    "one_output": (1, 5, dict(), [(0, True), (1, True), (2, False)]),
    "no_targets": (7, 4, dict(), []),
    "no_free_queries": (7, 3, dict(), [(0, True), (1, False), (2, False)]),
    "stuff_only": (7, 4, dict(), [(1, False), (2, False)]),
    "no_box_weight": (7, 5, dict(lambda_box=0.0), [(0, True), (2, False)]),
    "box_loss_off": (7, 5, dict(use_box_loss=False), [(0, True), (2, False)]),
}


@pytest.mark.parametrize("case", LOSS_ORACLE_CASES)
def test_total_loss_matches_per_output_loop(case):
    """The batched loss against the per-output loop: value, breakdown and
    the gradients of every output's logits and boxes."""
    num_outputs, nq, weight_kw, segments = LOSS_ORACLE_CASES[case]
    cfg = desk_preset(**weight_kw)
    for seed in range(3):
        results = []
        for fn in (total_loss, loop_total_loss):
            leaves, targets = random_loss_case(seed, num_outputs, nq, 11, 3, segments)
            outputs = [
                MaskModuleOutput(heatmap_logits=h, class_logits=c, boxes=b) for h, c, b in leaves
            ]
            match = hungarian_match(outputs[-1], targets, cfg)
            loss, breakdown = fn(outputs, targets, match, cfg)
            backward(loss)
            grads = [t.grad for row in leaves for t in row]
            results.append((loss.item(), breakdown.as_row(), grads))
        (got, got_parts, got_grads), (want, want_parts, want_grads) = results
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        for name, value in want_parts.items():
            assert got_parts[name] == pytest.approx(value, rel=1e-12, abs=1e-12), name
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
