import collections
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panoptic4d import kitti_io, metrics, synth
from panoptic4d.errors import ArityError, ContractError
from panoptic4d.metrics import (
    MetricReport,
    SequenceLabels,
    confusion_matrix,
    evaluate,
    lstq,
    pq_sequence,
    s_assoc,
    s_cls,
)
from panoptic4d.sequence import ClassMap

from oracles import (
    loop_confusion_matrix,
    loop_pq_sequence,
    loop_s_assoc,
    oracle_pq_scene,
    oracle_s_assoc,
    oracle_s_cls,
    random_scene,
)

CM = ClassMap(thing_ids=(1, 2), stuff_ids=(3, 4))


def labels_from_scene(scene):
    frames = sorted(scene)
    gt = SequenceLabels(
        frames=frames,
        semantic={f: np.asarray(scene[f][0]) for f in frames},
        instance={f: np.asarray(scene[f][1]) for f in frames},
    )
    pred = SequenceLabels(
        frames=frames,
        semantic={f: np.asarray(scene[f][2]) for f in frames},
        instance={f: np.asarray(scene[f][3]) for f in frames},
    )
    return pred, gt


def manual_scene(*frames):
    """frames: tuples of (gt_sem, gt_inst, pred_sem, pred_inst) lists."""
    return {
        f: tuple(np.asarray(a, dtype=np.int64) for a in arrays)
        for f, arrays in enumerate(frames)
    }


class TestSCls:
    def test_perfect(self):
        scene = manual_scene(([1, 3, 3], [1, 0, 0], [1, 3, 3], [1, 0, 0]))
        pred, gt = labels_from_scene(scene)
        miou, per_class, st, th = s_cls(pred, gt, CM)
        assert miou == 1.0 and st == 1.0 and th == 1.0

    def test_half_split_example(self):
        # gt: class 1 on 10 points; pred: 1 on 5, 2 on the other 5; no gt 2
        scene = manual_scene(
            ([1] * 10, [1] * 10, [1] * 5 + [2] * 5, [1] * 10)
        )
        pred, gt = labels_from_scene(scene)
        miou, per_class, st, th = s_cls(pred, gt, CM)
        assert per_class[1] == pytest.approx(0.5)
        assert per_class[2] == 0.0
        assert miou == pytest.approx(0.25)

    def test_instance_agnostic(self):
        scene = manual_scene(
            ([1, 1, 1, 1], [1, 1, 2, 2], [1, 1, 1, 1], [9, 8, 7, 6])
        )
        pred, gt = labels_from_scene(scene)
        miou, _, _, _ = s_cls(pred, gt, CM)
        assert miou == 1.0

    def test_ignore_excluded(self):
        scene = manual_scene(([1, 255], [1, 0], [1, 3], [1, 0]))
        pred, gt = labels_from_scene(scene)
        mat = confusion_matrix(pred, gt, CM)
        assert mat.sum() == 1

    def test_coverage_mismatch(self):
        scene = manual_scene(([1], [1], [1], [1]))
        pred, gt = labels_from_scene(scene)
        pred.semantic[0] = np.array([1, 1])
        with pytest.raises(ContractError):
            s_cls(pred, gt, CM)

    @pytest.mark.parametrize("side", ["pred", "gt"])
    @pytest.mark.parametrize("field", ["instance", "semantic"])
    def test_coverage_checks_every_array(self, side, field):
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]), ([1, 3], [1, 0], [1, 3], [1, 0]))
        labels = dict(zip(["pred", "gt"], labels_from_scene(scene)))
        getattr(labels[side], field)[1] = np.array([1])  # one point short
        for score in (s_cls, s_assoc, pq_sequence, evaluate):
            with pytest.raises(ContractError, match="frame 1"):
                score(labels["pred"], labels["gt"], CM)

    def test_coverage_rejects_missing_and_non_integer_labels(self):
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]))
        pred, gt = labels_from_scene(scene)
        del pred.instance[0]
        with pytest.raises(ContractError, match="frame 0: labels missing"):
            evaluate(pred, gt, CM)
        pred, gt = labels_from_scene(scene)
        pred.semantic[0] = np.array([1.0, 3.0])
        with pytest.raises(ContractError, match="frame 0: labels must be integer"):
            evaluate(pred, gt, CM)


class TestEvaluateChecksOnce:
    def test_one_size_check_per_side_per_evaluate(self, monkeypatch):
        calls = []
        frame_sizes, check_sizes = SequenceLabels.frame_sizes, SequenceLabels.check_sizes

        def counted_frame_sizes(self):
            calls.append(("frame_sizes", self))
            return frame_sizes(self)

        def counted_check_sizes(self, frames, sizes):
            calls.append(("check_sizes", self))
            return check_sizes(self, frames, sizes)

        monkeypatch.setattr(SequenceLabels, "frame_sizes", counted_frame_sizes)
        monkeypatch.setattr(SequenceLabels, "check_sizes", counted_check_sizes)
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]), ([2, 4], [5, 0], [2, 4], [6, 0]))
        for score in (evaluate, s_cls, s_assoc, pq_sequence):
            calls.clear()
            pred, gt = labels_from_scene(scene)
            score(pred, gt, CM)
            assert calls == [("frame_sizes", gt), ("check_sizes", gt), ("check_sizes", pred)]

    def test_short_pred_instance_array_names_the_frame(self):
        scene = manual_scene(([1, 3], [1, 0], [1, 3], [1, 0]), ([1, 3, 3], [1, 0, 0], [1, 3, 3], [1, 0, 0]))
        pred, gt = labels_from_scene(scene)
        pred.instance[1] = pred.instance[1][:-1]
        with pytest.raises(ContractError, match=r"frame 1: labels must be 1-D arrays of one length"):
            evaluate(pred, gt, CM)


class TestSAssoc:
    def test_perfect(self):
        scene = manual_scene(
            ([1, 1, 3], [1, 1, 0], [1, 1, 3], [5, 5, 0]),
            ([1, 1, 3], [1, 1, 0], [1, 1, 3], [5, 5, 0]),
        )
        pred, gt = labels_from_scene(scene)
        assert s_assoc(pred, gt, CM) == pytest.approx(1.0)

    def test_split_tube_half(self):
        # one gt tube of 10 points split into two predicted tubes of 5 each
        scene = manual_scene(
            ([1] * 5, [1] * 5, [1] * 5, [7] * 5),
            ([1] * 5, [1] * 5, [1] * 5, [8] * 5),
        )
        pred, gt = labels_from_scene(scene)
        assert s_assoc(pred, gt, CM) == pytest.approx(0.5, abs=1e-12)

    def test_zero_overlap(self):
        scene = manual_scene(([1, 3], [1, 0], [3, 1], [0, 9]))
        pred, gt = labels_from_scene(scene)
        # prediction tube only covers a gt-stuff point
        assert s_assoc(pred, gt, CM) == pytest.approx(0.0)

    def test_no_gt_tubes_warns_one(self):
        scene = manual_scene(([3, 3], [0, 0], [3, 1], [0, 1]))
        pred, gt = labels_from_scene(scene)
        with pytest.warns(UserWarning):
            assert s_assoc(pred, gt, CM) == 1.0

    def test_semantic_relabeling_invariant(self):
        rng = np.random.default_rng(0)
        scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
        pred, gt = labels_from_scene(scene)
        base = s_assoc(pred, gt, CM)
        relabeled = SequenceLabels(
            frames=pred.frames,
            semantic={f: np.full_like(pred.semantic[f], 2) for f in pred.frames},
            instance=pred.instance,
        )
        assert s_assoc(relabeled, gt, CM) == pytest.approx(base, abs=1e-15)


class TestLstq:
    def test_arithmetic(self):
        assert lstq(0.64, 0.81) == pytest.approx(0.72, abs=1e-12)

    def test_annihilator_and_identity(self):
        assert lstq(0.37, 0.0) == 0.0
        assert lstq(1.0, 1.0) == 1.0

    def test_range_check(self):
        with pytest.raises(ContractError):
            lstq(1.2, 0.5)
        with pytest.raises(ContractError):
            lstq(0.5, -0.01)


def one_scan_pq(gt_sem, gt_inst, pred_sem, pred_inst, class_map):
    """pq_sequence on a one-frame sequence."""
    pred, gt = labels_from_scene(manual_scene((gt_sem, gt_inst, pred_sem, pred_inst)))
    return pq_sequence(pred, gt, class_map)


class TestPq:
    def test_single_match_plus_fp(self):
        # one gt segment matched at IoU 0.6, one predicted FP
        gt_sem = [1] * 10 + [3] * 4
        gt_inst = [1] * 10 + [0] * 4
        pred_sem = [1] * 10 + [1] * 4
        pred_inst = [1] * 6 + [0] * 4 + [2] * 4
        things = ClassMap((1,), ())
        pq, sq, rq, per_class = one_scan_pq(gt_sem, gt_inst, pred_sem, pred_inst, things)
        # SQ = iou_sum / TP = 0.6 / 1 and RQ = TP / (TP + FP / 2 + FN / 2) = 1 / 1.5
        assert list(per_class) == [1]
        assert per_class[1] == pytest.approx((0.4, 0.6, 2 / 3))
        assert (pq, sq, rq) == pytest.approx((0.4, 0.6, 2 / 3))
        # the unmatched segment is the prediction's: without it RQ is 1 (FN = 0)
        pred_inst = [1] * 6 + [0] * 8
        assert one_scan_pq(gt_sem, gt_inst, pred_sem, pred_inst, things)[:3] == pytest.approx(
            (0.6, 0.6, 1.0)
        )

    def test_perfect(self):
        scene = manual_scene(
            ([1, 1, 3, 3], [1, 1, 0, 0], [1, 1, 3, 3], [4, 4, 0, 0])
        )
        pred, gt = labels_from_scene(scene)
        pq, sq, rq, per_class = pq_sequence(pred, gt, CM)
        assert pq == 1.0 and sq == 1.0 and rq == 1.0

    def test_unique_matching_under_adversarial_overlap(self):
        # two gt segments both overlapping one big prediction; at most one match
        gt_sem = [1] * 10
        gt_inst = [1] * 5 + [2] * 5
        pred_sem = [1] * 10
        pred_inst = [3] * 10
        _, _, _, per_class = one_scan_pq(gt_sem, gt_inst, pred_sem, pred_inst, ClassMap((1,), ()))
        assert per_class == {1: (0.0, 0.0, 0.0)}  # IoU 0.5 is not > 0.5: TP = 0
        # with one more, perfectly matched segment, RQ = 1 / (1 + (FP + FN) / 2),
        # FP = 1 and FN = 2 as before
        _, _, _, per_class = one_scan_pq(
            gt_sem + [1] * 3, gt_inst + [4] * 3, pred_sem + [1] * 3, pred_inst + [5] * 3,
            ClassMap((1,), ()),
        )
        assert per_class[1] == pytest.approx((0.4, 1.0, 0.4))

    def test_matches_oracle_random(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
            pred, gt = labels_from_scene(scene)
            pq, sq, rq, _ = pq_sequence(pred, gt, CM)
            opq, osq, orq = oracle_pq_scene(scene, CM.thing_ids, CM.stuff_ids)
            assert pq == pytest.approx(opq, abs=1e-12)
            assert sq == pytest.approx(osq, abs=1e-12)
            assert rq == pytest.approx(orq, abs=1e-12)


class TestAgainstOraclesRandom:
    def test_s_cls_and_s_assoc(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
            pred, gt = labels_from_scene(scene)
            assert s_cls(pred, gt, CM)[0] == pytest.approx(
                oracle_s_cls(scene, CM.all_ids), abs=1e-12
            )
            assert s_assoc(pred, gt, CM) == pytest.approx(
                oracle_s_assoc(scene, CM.thing_ids), abs=1e-12
            )

    def test_full_report_consistency(self):
        rng = np.random.default_rng(5)
        scene = random_scene(rng, CM.thing_ids, CM.stuff_ids)
        pred, gt = labels_from_scene(scene)
        rep = evaluate(pred, gt, CM)
        assert rep.lstq**2 == pytest.approx(rep.s_cls * rep.s_assoc, abs=1e-12)
        for v in rep.as_row().values():
            assert 0.0 <= v <= 1.0

    def test_scores_are_python_floats(self):
        """np.float64 subclasses float, so the type is compared exactly."""
        pred, gt = labels_from_scene(random_scene(np.random.default_rng(6), CM.thing_ids, CM.stuff_ids))
        rep = evaluate(pred, gt, CM)
        assert [type(v) for v in rep.as_row().values()] == [float] * 8
        assert type(s_assoc(pred, gt, CM)) is float


# ---------------------------------------------------------------------------
# bit-exact agreement with the original per-point loops


def loop_evaluate(pred, gt, class_map):
    """The metric report of the loop oracles: S_cls over the loop confusion
    matrix, the loop S_assoc and the loop PQ."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "confusion_matrix", loop_confusion_matrix)
        miou, per_class, iou_st, iou_th = s_cls(pred, gt, class_map)
    assoc = loop_s_assoc(pred, gt, class_map)
    pq, sq, rq, per_class_pq = loop_pq_sequence(pred, gt, class_map)
    return MetricReport(
        s_cls=miou,
        s_assoc=assoc,
        lstq=lstq(miou, assoc),
        per_class_iou=per_class,
        iou_stuff=iou_st,
        iou_things=iou_th,
        pq=pq,
        sq=sq,
        rq=rq,
        per_class_pq=per_class_pq,
    )


def assert_same_as_loops(pred, gt, class_map):
    got = evaluate(pred, gt, class_map)
    want = loop_evaluate(pred, gt, class_map)
    # == on the dataclass compares every field exactly, dicts included
    assert got == want
    assert s_assoc(pred, gt, class_map) == want.s_assoc
    assert pq_sequence(pred, gt, class_map) == loop_pq_sequence(pred, gt, class_map)
    for f in gt.frames:
        one = SequenceLabels([f], {f: pred.semantic[f]}, {f: pred.instance[f]})
        one_gt = SequenceLabels([f], {f: gt.semantic[f]}, {f: gt.instance[f]})
        assert pq_sequence(one, one_gt, class_map) == loop_pq_sequence(one, one_gt, class_map)
    np.testing.assert_array_equal(
        confusion_matrix(pred, gt, class_map), loop_confusion_matrix(pred, gt, class_map)
    )
    return got


def test_loop_oracles_run(monkeypatch):
    """assert_same_as_loops calls every loop oracle it compares against."""
    calls = collections.Counter()
    module = sys.modules[__name__]
    names = ("loop_confusion_matrix", "loop_s_assoc", "loop_pq_sequence")
    for name in names:

        def spy(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, spy)
    scene = random_scene(np.random.default_rng(7), CM.thing_ids, CM.stuff_ids)
    assert_same_as_loops(*labels_from_scene(scene), CM)
    assert all(calls[name] >= 1 for name in names), calls


WIDE_CM = ClassMap(thing_ids=(1, 2, 5, 7, 9), stuff_ids=(3, 4, 6, 8, 10, 11, 12))

# (gt_sem, gt_inst, pred_sem, pred_inst) per frame
EDGE_SCENES = {
    "empty frame list": {},
    "zero-point frames": manual_scene(
        ([], [], [], []), ([1, 1, 3], [2, 2, 0], [1, 1, 3], [5, 6, 0]), ([], [], [], [])
    ),
    "all-ignore frames": manual_scene(
        ([255, 255], [1, 0], [1, 3], [4, 0]), ([1, 1, 4], [1, 1, 0], [1, 2, 4], [4, 4, 0])
    ),
    "no gt tubes": manual_scene(([3, 3, 4], [0, 0, 0], [3, 1, 4], [0, 1, 0])),
    "stuff points with instance ids": manual_scene(
        ([3, 3, 4, 1], [7, 8, 9, 1], [3, 3, 4, 1], [2, 3, 4, 1])
    ),
    "pred ids reused across classes": manual_scene(
        ([1, 1, 2, 2, 3], [1, 1, 2, 2, 0], [1, 1, 2, 2, 3], [5, 5, 5, 5, 5]),
        ([1, 2, 2, 1], [1, 2, 2, 1], [2, 1, 2, 1], [5, 5, 5, 5]),
    ),
    "semantic ids outside the class map": manual_scene(
        ([1, 0, 17, 3, 1], [1, 4, 4, 0, 1], [1, 1, 17, 0, 99], [1, 1, 4, 0, 3])
    ),
    "negative and wide semantic ids": manual_scene(
        ([-5, 1, 70000, 2, 1], [1, 1, 2, 3, 1], [1, -5, 70000, 2, 1 << 40], [1, 1, 2, 3, 1])
    ),
    "instance ids of 2**20 and beyond": manual_scene(
        ([1, 1, 1, 2, 2, 3], [1 << 20, 1 << 20, 5, 1 << 33, 1 << 33, 0],
         [1, 1, 1, 2, 2, 3], [1 << 21, 1 << 21, 1 << 45, 7, 7, 0]),
        ([1, 1, 2, 2], [1 << 20, 1 << 20, 1 << 33, 1], [1, 1, 2, 2], [1 << 21, 9, 7, 7]),
    ),
    "instance ids too wide for strided int64 keys": manual_scene(
        ([1, 1, 2, 2, 1], [1 << 62, 1 << 62, 3, 3, 1], [1, 1, 2, 2, 1],
         [(1 << 62) + 5, 1, 1 << 61, 1 << 61, 1]),
        ([1, 2, 1], [1, 3, 1 << 62], [1, 2, 1], [1, 1 << 61, -(1 << 62)]),
    ),
    # IoUs (n - 1) / n whose float sum depends on the order of the terms
    "many matched instances": manual_scene(
        (
            [1] * 60 + [3] * 4,
            [n for n in range(4, 12) for _ in range(n)] + [0] * 4,
            [1] * 60 + [3] * 4,
            [i for n in range(4, 12) for i in [100 + n] * (n - 1) + [99]] + [0] * 4,
        )
    ),
    "negative instance ids": manual_scene(
        ([1, 1, 2, 3], [-1, -1, 2, -4], [1, 1, 2, 3], [-3, 2, -2, 0])
    ),
}


def late_ids_and_missing_classes(scene, rng, class_map):
    """Later frames bring lower gt ids, so id order is not first-seen order,
    and each frame loses up to three classes to an id outside the map."""
    last = max(scene)
    out = {}
    for f, (gt_sem, gt_inst, pred_sem, pred_inst) in scene.items():
        gone = rng.choice(class_map.all_ids, size=int(rng.integers(0, 4)))
        out[f] = (
            np.where(np.isin(gt_sem, gone), 0, gt_sem),
            np.where(gt_inst > 0, gt_inst + 8 * (last - f), 0),
            np.where(np.isin(pred_sem, gone), 0, pred_sem),
            pred_inst,
        )
    return out


@pytest.mark.filterwarnings("ignore:no ground-truth thing tubes")
class TestAgainstLoopOracles:
    """Every report field equals the original loops', bit for bit."""

    @pytest.mark.parametrize("block_points", [1 << 16, 3])
    @pytest.mark.parametrize("name", sorted(EDGE_SCENES))
    def test_edge_cases(self, name, block_points, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
        pred, gt = labels_from_scene(EDGE_SCENES[name])
        assert_same_as_loops(pred, gt, CM)

    def test_empty_frame_list_report(self):
        pred, gt = labels_from_scene({})
        with pytest.warns(UserWarning, match="no ground-truth thing tubes"):
            rep = evaluate(pred, gt, CM)
        assert (rep.s_cls, rep.s_assoc, rep.lstq, rep.pq) == (0.0, 1.0, 0.0, 0.0)
        assert rep.per_class_iou == {} and rep.per_class_pq == {}

    def test_no_gt_tubes_warns_and_scores_one(self):
        pred, gt = labels_from_scene(EDGE_SCENES["no gt tubes"])
        with pytest.warns(UserWarning, match="no ground-truth thing tubes"):
            assert evaluate(pred, gt, CM).s_assoc == 1.0

    @pytest.mark.parametrize("block_points", [1 << 16, 40, 1])
    @pytest.mark.parametrize("class_map", [CM, WIDE_CM], ids=["4 classes", "12 classes"])
    def test_random_scenes(self, class_map, block_points, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
        for seed in range(30):
            rng = np.random.default_rng(7000 + seed)
            scene = random_scene(
                rng, class_map.thing_ids, class_map.stuff_ids, max_points=400, max_frames=6
            )
            if seed % 2:
                scene = late_ids_and_missing_classes(scene, rng, class_map)
            pred, gt = labels_from_scene(scene)
            assert_same_as_loops(pred, gt, class_map)

    @pytest.mark.parametrize(
        "class_map", [ClassMap((), (3, 4)), ClassMap((1, 2), ())], ids=["stuff only", "things only"]
    )
    def test_one_sided_class_maps(self, class_map):
        for seed in range(5):
            scene = random_scene(np.random.default_rng(seed), CM.thing_ids, CM.stuff_ids)
            assert_same_as_loops(*labels_from_scene(scene), class_map)

    @pytest.mark.parametrize("block_points", [1 << 16, 5])
    def test_confusion_matrix_with_ids_outside_the_map(self, block_points, monkeypatch):
        """WIDE_CM's counts against the loop's when gt and predictions carry
        ids the map lacks: 0, 13, IGNORE_LABEL, 2**16, a negative id, 2**40."""
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
        outside = [0, 13, 255, 1 << 16, -3, 1 << 40]
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            scene = random_scene(rng, WIDE_CM.thing_ids, WIDE_CM.stuff_ids, max_points=300)
            for gt_sem, _, pred_sem, _ in scene.values():
                for sem in (gt_sem, pred_sem):
                    swap = rng.random(sem.size) < 0.2
                    sem[swap] = rng.choice(outside, size=int(swap.sum()))
            pred, gt = labels_from_scene(scene)
            want = loop_confusion_matrix(pred, gt, WIDE_CM)
            assert want.sum() > 0
            np.testing.assert_array_equal(confusion_matrix(pred, gt, WIDE_CM), want)

    def test_unsorted_frame_numbers_and_narrow_dtypes(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BLOCK_POINTS", 50)
        scene = random_scene(np.random.default_rng(3), CM.thing_ids, CM.stuff_ids)
        frames = [9, 2, 40, 0, 7][: len(scene)]
        arrays = [scene[f] for f in sorted(scene)]
        gt = SequenceLabels(
            frames,
            {f: a[0].astype(np.uint16) for f, a in zip(frames, arrays)},
            {f: a[1].astype(np.int32) for f, a in zip(frames, arrays)},
        )
        pred = SequenceLabels(
            frames,
            {f: a[2].astype(np.uint32) for f, a in zip(frames, arrays)},
            {f: a[3].astype(np.uint64) for f, a in zip(frames, arrays)},
        )
        assert_same_as_loops(pred, gt, CM)

    @settings(max_examples=150)
    @given(
        frames=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([1, 2, 3, 4, 255, 0, 9]),
                    st.sampled_from([0, 1, 2, 3, -1, 1 << 20, 1 << 62]),
                    st.sampled_from([1, 2, 3, 4, 0, 9, -7]),
                    st.sampled_from([0, 1, 2, 5, -2, 1 << 21, (1 << 62) + 1]),
                ),
                max_size=25,
            ),
            max_size=5,
        ),
        block_points=st.integers(1, 80),
    )
    def test_property(self, frames, block_points):
        scene = {
            f: tuple(np.array([p[k] for p in points], dtype=np.int64) for k in range(4))
            for f, points in enumerate(frames)
        }
        pred, gt = labels_from_scene(scene)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_POINTS", block_points)
            assert_same_as_loops(pred, gt, CM)



# ---------------------------------------------------------------------------
# labels streamed from files equal labels held in memory


def write_scene(scene, root):
    """The scene as a ground-truth sequence directory (velodyne .bin files of
    the right size, .label files) and a prediction directory (labels only);
    returns their LabelFiles sources."""
    gt_dir, pred_dir = root / "gt", root / "pred"
    for d in (gt_dir / "velodyne", gt_dir / "labels", pred_dir / "labels"):
        d.mkdir(parents=True)
    for f, (gt_sem, gt_inst, pred_sem, pred_inst) in scene.items():
        kitti_io.write_scan(kitti_io.scan_path(gt_dir, f), np.zeros((gt_sem.size, 3)))
        kitti_io.write_labels(kitti_io.label_path(gt_dir, f), gt_sem, gt_inst)
        kitti_io.write_labels(kitti_io.label_path(pred_dir, f), pred_sem, pred_inst)
    return (
        kitti_io.LabelFiles(str(pred_dir), "predicted"),
        kitti_io.LabelFiles(str(gt_dir), "ground-truth"),
    )


def report_bits(rep: MetricReport) -> list:
    """Every report value as float.hex, so -0.0 and 0.0 differ."""
    def bits(x):
        return [bits(v) for v in x] if isinstance(x, tuple) else float(x).hex()

    return [
        [bits(v) for v in rep.as_row().values()],
        sorted((c, bits(v)) for c, v in rep.per_class_iou.items()),
        sorted((c, bits(v)) for c, v in rep.per_class_pq.items()),
    ]


FILE_SCENES = {
    "empty frames and ids outside the map": manual_scene(
        ([], [], [], []),
        ([1, 1, 3, 0, 13, 65535, 255], [2, 2, 0, 1, 1, 7, 3], [1, 1, 3, 3, 1, 65535, 1], [5, 5, 0, 0, 9, 4, 5]),
        ([], [], [], []),
        ([2, 2, 4, 255, 1], [65535, 65535, 0, 0, 1], [2, 2, 4, 4, 0], [1, 1, 0, 2, 3]),
    ),
    "random": random_scene(np.random.default_rng(41), CM.thing_ids, CM.stuff_ids, max_points=600),
    "random with late ids": late_ids_and_missing_classes(
        random_scene(np.random.default_rng(42), CM.thing_ids, CM.stuff_ids, max_points=600),
        np.random.default_rng(43),
        CM,
    ),
}


@pytest.mark.filterwarnings("ignore:no ground-truth thing tubes")
@pytest.mark.parametrize("block_points", [1 << 16, 64, 3, 1])
@pytest.mark.parametrize("name", sorted(FILE_SCENES))
def test_label_files_score_like_labels_in_memory(name, block_points, tmp_path, monkeypatch):
    """Blocks of 1 and 3 points make every non-empty frame larger than a
    block; frame numbers need not be consecutive on disk."""
    monkeypatch.setattr(metrics, "_BLOCK_POINTS", block_points)
    scene = dict(zip([0, 3, 4, 10, 11], FILE_SCENES[name].values()))
    files = write_scene(scene, tmp_path)
    pred, gt = labels_from_scene(scene)
    want = evaluate(pred, gt, CM)
    got = evaluate(*files, CM)
    assert got == want
    assert report_bits(got) == report_bits(want)
    assert s_assoc(*files, CM) == want.s_assoc
    assert pq_sequence(*files, CM) == pq_sequence(pred, gt, CM)
    np.testing.assert_array_equal(confusion_matrix(*files, CM), confusion_matrix(pred, gt, CM))


@pytest.mark.filterwarnings("ignore:no ground-truth thing tubes")
@pytest.mark.parametrize("name", sorted(FILE_SCENES))
def test_mixed_label_sources_score_like_same_kind_pairs(name, tmp_path):
    """Files on one side and labels in memory on the other, in both orders."""
    scene = dict(zip([0, 3, 4, 10, 11], FILE_SCENES[name].values()))
    pred_files, gt_files = write_scene(scene, tmp_path)
    pred, gt = labels_from_scene(scene)
    want = evaluate(pred, gt, CM)
    assert report_bits(evaluate(pred_files, gt_files, CM)) == report_bits(want)
    for got in (evaluate(pred, gt_files, CM), evaluate(pred_files, gt, CM)):
        assert got == want
        assert report_bits(got) == report_bits(want)


@pytest.mark.parametrize(
    "in_memory, error, message",
    [("pred", ContractError, r"frame 10: labels must be 1-D"), ("gt", ArityError, r"000010\.label")],
)
def test_mixed_label_sources_name_the_frame_of_a_size_mismatch(in_memory, error, message, tmp_path):
    scene = dict(zip([0, 3, 4, 10, 11], FILE_SCENES["random"].values()))
    pred_files, gt_files = write_scene(scene, tmp_path)
    labels = dict(zip(["pred", "gt"], labels_from_scene(scene)))
    for arrays in (labels[in_memory].semantic, labels[in_memory].instance):
        arrays[10] = np.append(arrays[10], 1)  # one point more than the files hold
    sources = {"pred": pred_files, "gt": gt_files, in_memory: labels[in_memory]}
    with pytest.raises(error, match=message):
        evaluate(sources["pred"], sources["gt"], CM)


def test_association_rows_follow_distinct_keys_not_blocks(monkeypatch):
    """300 one-frame blocks of three gt tubes, five predicted ids and four
    (gt, pred) pairs: the running tables hold fewer than twice the distinct
    keys after every block, where a table per block held 300 times them."""
    monkeypatch.setattr(metrics, "_BLOCK_POINTS", 8)
    sem = np.array([1, 1, 2, 2, 1, 3, 3, 4])
    gt_inst = np.array([1, 1, 2, 2, 3, 0, 0, 0])
    pred_inst = np.array([5, 6, 2, 2, 7, 8, 0, 0])
    frames = list(range(300))
    gt = SequenceLabels(frames, dict.fromkeys(frames, sem), dict.fromkeys(frames, gt_inst))
    pred = SequenceLabels(frames, dict.fromkeys(frames, sem), dict.fromkeys(frames, pred_inst))
    assoc = metrics._Association()
    held = []
    for block in metrics._blocks(pred, gt, CM):
        assoc.add(block)
        held.append(assoc.tubes.rows + assoc.pred_tubes.rows + assoc.pairs.rows)
    assert len(held) == 300
    assert max(held) < 2 * (3 + 5 + 4)
    assert assoc.result() == loop_s_assoc(pred, gt, CM)


@pytest.fixture(scope="module")
def long_sequence():
    """250 scans of 2200 points, the size of the benchmark's eval sequence,
    with predictions that flip semantic labels, switch ids every 25 scans
    and give random points fresh ids."""
    seq = synth.generate_sequence(
        synth.SceneSpec(
            seed=11,
            num_frames=250,
            num_thing_objects=6,
            points_per_object=200,
            points_per_stuff=1000,
            arena_extent=40.0,
        )
    )
    gt = SequenceLabels.from_scans(seq)
    rng = np.random.default_rng(11)
    semantic, instance = {}, {}
    for f in gt.frames:
        sem, inst = gt.semantic[f].copy(), gt.instance[f]
        flip = rng.random(sem.size) < 0.04
        sem[flip] = rng.choice(seq.class_map.all_ids, size=int(flip.sum()))
        inst = np.where(inst > 0, inst + 10 * (f // 25), 0)
        fresh = (inst > 0) & (rng.random(sem.size) < 0.1)
        inst[fresh] = 1000 + f
        semantic[f], instance[f] = sem, inst
    return SequenceLabels(gt.frames, semantic, instance), gt, seq.class_map


class TestLongSequence:
    def test_same_as_loops(self, long_sequence):
        pred, gt, class_map = long_sequence
        assert sum(a.size for a in gt.semantic.values()) > 8 * metrics._BLOCK_POINTS
        rep = evaluate(pred, gt, class_map)
        assert rep == loop_evaluate(pred, gt, class_map)
        assert 0.0 < rep.lstq < 1.0 and 0.0 < rep.pq < 1.0

    def test_peak_memory_bounded(self, long_sequence):
        pred, gt, class_map = long_sequence
        tracemalloc.start()
        try:
            evaluate(pred, gt, class_map)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
